package hitlist6bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunListsNameTests fails when a Test… or Fuzz… alternative of a
// -run or -fuzz pattern in the CI workflow matches no test function in
// the repository: a renamed or deleted test would otherwise leave a step
// that passes while running nothing. Alternatives match as go test
// matches them, an unanchored regular expression on the function name.
func TestCIRunListsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range regexp.MustCompile(`-(?:run|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`).FindAllStringSubmatch(string(ci), -1) {
		for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
			if !strings.HasPrefix(alt, "Test") && !strings.HasPrefix(alt, "Fuzz") {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: pattern %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: %q in a -run or -fuzz pattern matches no test function", alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: no Test or Fuzz alternative found in any -run or -fuzz pattern")
	}
	t.Logf("%d alternatives checked against %d test functions", checked, len(names))
}

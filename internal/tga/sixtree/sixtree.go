// Package sixtree reimplements 6Tree (Liu et al., Computer Networks 2019):
// a space-tree model of the seed set built by divisive hierarchical
// clustering (DHC) over nibble vectors, with candidate generation inside
// the densest leaf regions. The space tree is exactly the incrementally
// maintainable structure the original advertises: because the seed set
// only grows, per-node nibble-value masks only gain bits, and a new seed
// descends the existing split dimensions — subtrees rebuild only when an
// insertion changes a node's least-entropy split choice.
//
// Following the hitlist paper's usage, the active-scan feedback loop of the
// original is disabled: "we prevented active scans, limited 6Tree to target
// generation only, and used the detection proposed by the IPv6 Hitlist
// service during our scans." The generator therefore only expands regions;
// alias handling is left to the pipeline's APD, reproducing the Akamai
// blow-up the paper reports when 6Tree's own alias check is trusted.
package sixtree

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// Config tunes the tree.
type Config struct {
	// MaxLeafSize stops DHC splitting below this many seeds.
	MaxLeafSize int
	// MaxFreeDims bounds how many variable nibble dimensions a leaf may
	// enumerate during generation.
	MaxFreeDims int
}

// DefaultConfig matches the published defaults at our scale.
func DefaultConfig() Config { return Config{MaxLeafSize: 16, MaxFreeDims: 2} }

// spaceTree is a built space tree.
type spaceTree struct {
	root   *node
	leaves []*node
	fresh  bool // leaves cache valid
}

// node is one DHC region. mask[i] is the bitmask of nibble values
// observed at position i over the node's seeds — the structure that
// makes insertion cheap: split decisions depend only on masks, and masks
// are monotone under a grow-only seed set. Internal nodes hold no seeds;
// leaves keep theirs sorted ascending.
type node struct {
	mask     [32]uint16
	splitDim int // -1 at leaves
	children []*node
	keys     []byte // children[i]'s nibble value at splitDim, ascending
	seeds    []ip6.Addr
}

func (n *node) observe(a ip6.Addr) {
	for i := 0; i < 32; i++ {
		n.mask[i] |= 1 << a.Nibble(i)
	}
}

// bestSplit picks the DHC dimension: fewest distinct values (>1), ties
// towards the most significant position — the least-entropy split.
func (n *node) bestSplit() int {
	best, bestCount := -1, 17
	for i := 0; i < 32; i++ {
		if c := bits.OnesCount16(n.mask[i]); c > 1 && c < bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// fixedDim reports whether position i holds a single value over the
// node's seeds.
func (n *node) fixedDim(i int) bool { return bits.OnesCount16(n.mask[i]) == 1 }

// Generator is the 6Tree TGA: one space tree grown in place by the seeds
// each view adds.
type Generator struct {
	cfg  Config
	kept tga.KeptSpans
	tree *spaceTree
}

// New returns a 6Tree generator.
func New(cfg Config) *Generator {
	if cfg.MaxLeafSize <= 0 {
		cfg.MaxLeafSize = 16
	}
	if cfg.MaxFreeDims <= 0 {
		cfg.MaxFreeDims = 2
	}
	return &Generator{cfg: cfg}
}

// Name implements tga.ViewStreamer.
func (g *Generator) Name() string { return "6Tree" }

// buildTree constructs the space tree over the seeds. Leaf seed order is
// normalized ascending, so the tree is a pure function of the seed set —
// the invariant that lets incremental insertion reproduce a scratch
// build bit for bit.
func buildTree(seeds []ip6.Addr, cfg Config) *spaceTree {
	return &spaceTree{root: buildNode(seeds, cfg)}
}

// buildNode applies DHC: recurse on the dimension with the fewest
// distinct values (>1) until regions are small.
func buildNode(seeds []ip6.Addr, cfg Config) *node {
	n := &node{splitDim: -1}
	for _, a := range seeds {
		n.observe(a)
	}
	if len(seeds) <= cfg.MaxLeafSize {
		n.seeds = sortedCopy(seeds)
		return n
	}
	best := n.bestSplit()
	if best < 0 { // all seeds identical
		n.seeds = sortedCopy(seeds)
		return n
	}
	n.splitDim = best
	var buckets [16][]ip6.Addr
	for _, a := range seeds {
		v := a.Nibble(best)
		buckets[v] = append(buckets[v], a)
	}
	for v := 0; v < 16; v++ {
		if len(buckets[v]) == 0 {
			continue
		}
		n.children = append(n.children, buildNode(buckets[v], cfg))
		n.keys = append(n.keys, byte(v))
	}
	return n
}

func sortedCopy(seeds []ip6.Addr) []ip6.Addr {
	out := append([]ip6.Addr(nil), seeds...)
	ip6.SortAddrs(out)
	return out
}

// insert adds one address, maintaining scratch-build equivalence: masks
// update along the descent path, and any node whose best-split choice
// the insertion flips is rebuilt from its gathered seeds — exactly what
// a scratch build would have produced there.
func (t *spaceTree) insert(a ip6.Addr, cfg Config) {
	t.fresh = false
	insertAt(t.root, a, cfg)
}

func insertAt(n *node, a ip6.Addr, cfg Config) {
	n.observe(a)
	if n.splitDim < 0 {
		i := sort.Search(len(n.seeds), func(i int) bool { return !n.seeds[i].Less(a) })
		if i < len(n.seeds) && n.seeds[i] == a {
			return
		}
		n.seeds = append(n.seeds, ip6.Addr{})
		copy(n.seeds[i+1:], n.seeds[i:])
		n.seeds[i] = a
		if len(n.seeds) > cfg.MaxLeafSize && n.bestSplit() >= 0 {
			*n = *buildNode(n.seeds, cfg)
		}
		return
	}
	if best := n.bestSplit(); best != n.splitDim {
		seeds := gatherSeeds(n, nil)
		seeds = append(seeds, a)
		*n = *buildNode(seeds, cfg)
		return
	}
	v := a.Nibble(n.splitDim)
	ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= v })
	if ci < len(n.keys) && n.keys[ci] == v {
		insertAt(n.children[ci], a, cfg)
		return
	}
	child := &node{splitDim: -1, seeds: []ip6.Addr{a}}
	child.observe(a)
	n.children = append(n.children, nil)
	copy(n.children[ci+1:], n.children[ci:])
	n.children[ci] = child
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = v
}

// gatherSeeds collects a subtree's seeds (leaf DFS order; order is
// irrelevant to the rebuild, which re-sorts at leaf creation).
func gatherSeeds(n *node, out []ip6.Addr) []ip6.Addr {
	if n.splitDim < 0 {
		return append(out, n.seeds...)
	}
	for _, c := range n.children {
		out = gatherSeeds(c, out)
	}
	return out
}

// leafList returns the leaves in DFS order, regenerating the cache after
// mutations.
func (t *spaceTree) leafList() []*node {
	if !t.fresh {
		t.leaves = t.leaves[:0]
		var dfs func(n *node)
		dfs = func(n *node) {
			if n.splitDim < 0 {
				t.leaves = append(t.leaves, n)
				return
			}
			for _, c := range n.children {
				dfs(c)
			}
		}
		if t.root != nil {
			dfs(t.root)
		}
		t.fresh = true
	}
	return t.leaves
}

// update inserts the seeds the view adds into the tree. The first call,
// and a view that is not a grow-only extension of the kept one (a shard
// shrank, or the seed set is a different one), builds from scratch.
func (g *Generator) update(v *tga.SeedView) {
	added, reset := g.kept.Added(v)
	if reset {
		g.tree = buildTree(added, g.cfg)
		return
	}
	for _, a := range added {
		g.tree.insert(a, g.cfg)
	}
}

// EmitView implements tga.ViewStreamer: grow the tree with the view's
// new seeds, then expand leaves in density order.
func (g *Generator) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	if v.Len() == 0 || budget <= 0 {
		return
	}
	g.update(v)
	g.emit(v, budget, yield)
}

// emit expands leaves in density order, yielding candidates as the
// expansion walks them. A shared novelty check (seed-view membership
// plus this round's emissions) makes the budget count genuinely new
// addresses, never duplicates or seeds.
func (g *Generator) emit(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	// Each leaf's priority is computed once, then the leaves sort stably
	// by it, densest first.
	type ranked struct {
		leaf     *node
		priority float64
	}
	list := g.tree.leafList()
	leaves := make([]ranked, len(list))
	for i, leaf := range list {
		leaves[i] = ranked{leaf, leafPriority(leaf)}
	}
	slices.SortStableFunc(leaves, func(a, b ranked) int { return cmp.Compare(b.priority, a.priority) })

	e := &emitter{budget: budget, view: v, seen: ip6.NewSet(budget), yield: yield}
	for _, r := range leaves {
		leaf := r.leaf
		if e.full() {
			break
		}
		// Single observations are not regions; expanding them would
		// extrapolate from density 1.
		if len(leaf.seeds) < 2 {
			continue
		}
		expandLeaf(leaf, g.cfg.MaxFreeDims, e)
	}
}

// emitter tracks one emission pass: novelty-counted budget plus the
// consumer's early-stop signal.
type emitter struct {
	budget  int
	emitted int
	stopped bool
	view    *tga.SeedView
	seen    ip6.Set
	yield   func(ip6.Addr) bool
}

func (e *emitter) full() bool { return e.stopped || e.emitted >= e.budget }

// add yields a novel address, counting it toward the budget.
func (e *emitter) add(a ip6.Addr) {
	if !e.view.Has(a) && e.seen.Add(a) {
		e.emitted++
		if !e.yield(a) {
			e.stopped = true
		}
	}
}

func leafPriority(n *node) float64 {
	free := 0
	for i := 0; i < 32; i++ {
		if !n.fixedDim(i) {
			free++
		}
	}
	if free == 0 {
		free = 1
	}
	return float64(len(n.seeds)) / float64(free)
}

// expandLeaf enumerates the region's free dimensions over all 16 nibble
// values, holding everything else at each seed's value — the "region
// expansion" of 6Tree. When the leaf's own variability offers fewer than
// maxDims dimensions (because DHC fixed them on the way down), the lowest
// address nibbles are expanded as well; this is what discovers genuinely
// new neighbors rather than only recombinations.
func expandLeaf(n *node, maxDims int, e *emitter) {
	// Free dims, least significant first.
	var free []int
	taken := [32]bool{}
	for i := 31; i >= 0 && len(free) < maxDims; i-- {
		if !n.fixedDim(i) {
			free = append(free, i)
			taken[i] = true
		}
	}
	for i := 31; i >= 16 && len(free) < maxDims; i-- {
		if !taken[i] {
			free = append(free, i)
			taken[i] = true
		}
	}
	if len(free) == 0 {
		return
	}
	for _, seed := range n.seeds {
		var rec func(addr ip6.Addr, d int)
		rec = func(addr ip6.Addr, d int) {
			if e.full() {
				return
			}
			if d == len(free) {
				e.add(addr)
				return
			}
			for v := byte(0); v < 16; v++ {
				rec(addr.SetNibble(free[d], v), d+1)
				if e.full() {
					return
				}
			}
		}
		rec(seed, 0)
		if e.full() {
			break
		}
	}
}

var _ tga.ViewStreamer = (*Generator)(nil)

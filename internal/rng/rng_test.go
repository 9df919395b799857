package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "test")
	b := NewStream(42, "test")
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at %d: %x vs %x", i, x, y)
		}
	}
}

func TestStreamPurposeIndependence(t *testing.T) {
	a := NewStream(42, "alpha")
	b := NewStream(42, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("purpose-separated streams produced %d identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := NewStream(1, "parent")
	d1 := parent.Derive(1)
	d2 := parent.Derive(2)
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("derived streams with different keys matched")
	}
	// Deriving must not disturb the parent.
	p1 := NewStream(1, "parent")
	_ = p1.Derive(1)
	_ = p1.Derive(2)
	p2 := NewStream(1, "parent")
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Derive mutated parent state")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewStream(7, "bounds")
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := NewStream(9, "unif")
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(3, "float")
	sum := 0.0
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewStream(4, "bool")
	for i := 0; i < 50; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewStream(5, "norm")
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewStream(6, "perm")
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(12345, 67890)
	flipped := Mix(12345^1, 67890)
	diff := base ^ flipped
	pop := 0
	for ; diff != 0; diff &= diff - 1 {
		pop++
	}
	if pop < 16 || pop > 48 {
		t.Errorf("avalanche popcount %d, want within [16,48]", pop)
	}
}

func TestMixProperty(t *testing.T) {
	// Mix must be a pure function and sensitive to argument order.
	f := func(a, b uint64) bool {
		if Mix(a, b) != Mix(a, b) {
			return false
		}
		if a != b && Mix(a, b) == Mix(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixStateResumes(t *testing.T) {
	if got := Mix(1, 2, 3); got != MixPrefix(1).Add(2).Add(3).Sum() || got != MixPrefix(1, 2, 3).Sum() {
		t.Errorf("split Mix(1,2,3) disagrees with %#x", got)
	}
	f := func(a, b, c, d uint64) bool {
		return Mix(a, b, c, d) == MixPrefix(a, b).Add(c).Add(d).Sum() && Mix() == MixPrefix().Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("www.google.com") != HashString("www.google.com") {
		t.Fatal("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial collision")
	}
	if HashBytes([]byte("xyz")) != HashString("xyz") {
		t.Fatal("HashBytes and HashString disagree")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.0, 2.0)
	r := NewStream(8, "zipf")
	const draws = 100000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[500]*5 {
		t.Errorf("zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Weights must sum to ~1.
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		sum += z.Weight(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf weights sum %v", sum)
	}
}

func TestWeightedSampler(t *testing.T) {
	w := NewWeighted([]float64{0, 1, 3, 0})
	r := NewStream(10, "weighted")
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[w.Sample(r)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight buckets sampled: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight ratio %v, want ~3", ratio)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewStream(11, "poisson")
	for _, lambda := range []float64{0.5, 4, 100} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Errorf("Poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestBinomialMean(t *testing.T) {
	r := NewStream(12, "binom")
	const n, p, draws = 1000, 0.3, 5000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Binomial(n, p)
	}
	mean := float64(sum) / draws
	if math.Abs(mean-n*p) > 5 {
		t.Errorf("Binomial mean %v, want ~%v", mean, n*p)
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial edge cases wrong")
	}
}

func TestFill(t *testing.T) {
	r := NewStream(13, "fill")
	for _, n := range []int{0, 1, 7, 8, 9, 16, 33} {
		b := make([]byte, n)
		r.Fill(b)
		if n >= 8 {
			allZero := true
			for _, c := range b {
				if c != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Errorf("Fill(%d) produced all zeros", n)
			}
		}
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	r := NewStream(1, "bench")
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkMix(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Mix(uint64(i), 12345)
	}
	_ = sink
}

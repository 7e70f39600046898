package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws in 100", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// The child stream must not replay the parent's continuation.
	parentNext := make([]uint64, 50)
	for i := range parentNext {
		parentNext[i] = r.Uint64()
	}
	for i := 0; i < 50; i++ {
		v := child.Uint64()
		for _, p := range parentNext {
			if v == p {
				t.Fatalf("child draw %d collides with parent stream", i)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormVec(t *testing.T) {
	r := NewRNG(17)
	v := r.NormVec(make([]float64, 50000), 3, 2)
	m := Mean(v)
	var ss float64
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	s := math.Sqrt(ss / float64(len(v)))
	if math.Abs(m-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", m)
	}
	if math.Abs(s-2) > 0.05 {
		t.Errorf("std = %v, want ~2", s)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
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

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(23)
	p := []int{5, 5, 7, 9, 1}
	orig := map[int]int{}
	for _, v := range p {
		orig[v]++
	}
	r.Shuffle(p)
	got := map[int]int{}
	for _, v := range p {
		got[v]++
	}
	for k, c := range orig {
		if got[k] != c {
			t.Fatalf("element %d count changed: %d -> %d", k, c, got[k])
		}
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{0.2, 0.2}, // the paper's mixup setting
		{2, 5},
		{1, 1},
		{0.5, 3},
	}
	r := NewRNG(29)
	for _, c := range cases {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Beta(c.a, c.b)
			if v < 0 || v > 1 {
				t.Fatalf("Beta(%v,%v) out of range: %v", c.a, c.b, v)
			}
			sum += v
		}
		want := c.a / (c.a + c.b)
		if got := sum / n; math.Abs(got-want) > 0.01 {
			t.Errorf("Beta(%v,%v) mean = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestGammaMeanVariance(t *testing.T) {
	r := NewRNG(31)
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		const n = 100000
		var sum, sq float64
		for i := 0; i < n; i++ {
			v := r.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) negative: %v", shape, v)
			}
			sum += v
			sq += v * v
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("Gamma(%v) mean = %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v) variance = %v", shape, variance)
		}
	}
}

func TestBetaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Beta(0, 1) did not panic")
		}
	}()
	NewRNG(1).Beta(0, 1)
}

// Property: Perm always yields a bijection, for arbitrary seeds and sizes.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		p := NewRNG(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

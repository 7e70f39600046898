package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{0}, []float64{5}, 0},
		{nil, nil, 0},
		{[]float64{-1, 1}, []float64{1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, dst)
	want := []float64{3, 4, 5}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", dst, want)
		}
	}
}

func TestScaleAddSub(t *testing.T) {
	x := []float64{1, -2, 4}
	Scale(0.5, x)
	if x[0] != 0.5 || x[1] != -1 || x[2] != 2 {
		t.Fatalf("Scale = %v", x)
	}
	dst := make([]float64, 3)
	Add(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 9 {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if dst[0] != -3 || dst[1] != -3 || dst[2] != -3 {
		t.Fatalf("Sub = %v", dst)
	}
}

func TestLerp(t *testing.T) {
	dst := make([]float64, 2)
	Lerp(dst, []float64{1, 0}, []float64{0, 1}, 0.25)
	if !almostEq(dst[0], 0.25, 1e-12) || !almostEq(dst[1], 0.75, 1e-12) {
		t.Fatalf("Lerp = %v", dst)
	}
	// t=1 returns a exactly, t=0 returns b exactly.
	Lerp(dst, []float64{3, 4}, []float64{-1, -2}, 1)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Lerp(t=1) = %v", dst)
	}
	Lerp(dst, []float64{3, 4}, []float64{-1, -2}, 0)
	if dst[0] != -1 || dst[1] != -2 {
		t.Fatalf("Lerp(t=0) = %v", dst)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := SqDist(a, b); got != 25 {
		t.Errorf("SqDist = %v", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Norm2(b); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		x    []float64
		want int
	}{
		{nil, -1},
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{5, 5, 5}, 0}, // ties resolve low
		{[]float64{-3, -1, -2}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.x); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSumMean(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Sum(x); got != 40 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestSoftmaxBasic(t *testing.T) {
	dst := make([]float64, 3)
	Softmax(dst, []float64{0, 0, 0})
	for _, v := range dst {
		if !almostEq(v, 1.0/3, 1e-12) {
			t.Fatalf("uniform softmax = %v", dst)
		}
	}
	Softmax(dst, []float64{1000, 0, -1000})
	if dst[0] < 0.999 {
		t.Fatalf("softmax not stable for large logits: %v", dst)
	}
	if math.IsNaN(dst[2]) || dst[2] < 0 {
		t.Fatalf("softmax produced invalid value: %v", dst)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := make([]float64, 4)
	b := make([]float64, 4)
	logits := []float64{0.3, -1.2, 2.5, 0.9}
	shifted := make([]float64, 4)
	for i, v := range logits {
		shifted[i] = v + 100
	}
	Softmax(a, logits)
	Softmax(b, shifted)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	x := []float64{0, 0}
	if got := LogSumExp(x); !almostEq(got, math.Log(2), 1e-12) {
		t.Errorf("LogSumExp = %v", got)
	}
	big := []float64{1e300, 1e300}
	if got := LogSumExp(big); math.IsInf(got, 1) || math.IsNaN(got) {
		t.Errorf("LogSumExp overflowed: %v", got)
	}
}

// TestSoftmaxLSEMatchesSeparateCalls is the differential test the fused
// training loss rests on: SoftmaxLSE must reproduce, bit for bit, a softmax
// written out independently here and the separate LogSumExp — on random
// logits of several widths, all-equal logits, and logits at ±700 where
// exp(v−max) underflows to zero or the unshifted exp would overflow.
func TestSoftmaxLSEMatchesSeparateCalls(t *testing.T) {
	refSoftmax := func(logits []float64) []float64 {
		m := Max(logits)
		out := make([]float64, len(logits))
		var sum float64
		for i, v := range logits {
			out[i] = math.Exp(v - m)
			sum += out[i]
		}
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
		return out
	}
	cases := [][]float64{
		{0}, {3.5, 3.5, 3.5, 3.5}, {0, 0, 0, 0, 0, 0, 0},
		{700, -700}, {-700, 700, 0}, {700, 700, 699.5}, {-700, -700, -700},
		{709.7, 0, -745.2}, {1e300, 1e300}, {-1e300, 0},
	}
	rng := NewRNG(4711)
	for _, n := range []int{1, 2, 5, 10, 100, 257} {
		for rep := 0; rep < 20; rep++ {
			cases = append(cases, rng.NormVec(make([]float64, n), 0, 1+float64(rep)*3))
		}
	}
	for _, logits := range cases {
		want := refSoftmax(logits)
		wantLSE := LogSumExp(logits)
		got := make([]float64, len(logits))
		gotLSE := SoftmaxLSE(got, logits)
		if math.Float64bits(gotLSE) != math.Float64bits(wantLSE) {
			t.Fatalf("logits %v: lse %v != LogSumExp %v", logits, gotLSE, wantLSE)
		}
		two := Softmax(make([]float64, len(logits)), logits)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(two[i]) != math.Float64bits(want[i]) {
				t.Fatalf("logits %v: softmax[%d] fused %v, Softmax %v, reference %v", logits, i, got[i], two[i], want[i])
			}
		}
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1, 0, 0}); got != 0 {
		t.Errorf("Entropy(point mass) = %v", got)
	}
	u := []float64{0.25, 0.25, 0.25, 0.25}
	if got := Entropy(u); !almostEq(got, math.Log(4), 1e-12) {
		t.Errorf("Entropy(uniform) = %v, want %v", got, math.Log(4))
	}
}

// Property: softmax output is a probability vector whose argmax matches the
// logits' argmax.
func TestSoftmaxProperty(t *testing.T) {
	f := func(raw [6]float64) bool {
		logits := make([]float64, 6)
		for i, v := range raw {
			// Bound the logits so exp stays finite but keep sign variety.
			logits[i] = math.Mod(v, 50)
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		dst := make([]float64, 6)
		Softmax(dst, logits)
		var sum float64
		for _, v := range dst {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9) && ArgMax(dst) == ArgMax(logits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist satisfies the triangle inequality and symmetry.
func TestDistProperty(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		clamp := func(x [4]float64) []float64 {
			out := make([]float64, 4)
			for i, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				out[i] = math.Mod(v, 1e6)
			}
			return out
		}
		av, bv, cv := clamp(a), clamp(b), clamp(c)
		dab, dba := Dist(av, bv), Dist(bv, av)
		if !almostEq(dab, dba, 1e-9) {
			return false
		}
		return Dist(av, cv) <= dab+Dist(bv, cv)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

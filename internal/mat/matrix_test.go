package mat

import (
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("NewMatrix(3,4) = %+v", m)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("FromRows content wrong: %v", m.Data)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row did not return a mutable view")
	}
}

func TestSetAtClone(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	c := m.Clone()
	m.Set(1, 2, 0)
	if c.At(1, 2) != 7 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	m.MulVecT(dst, []float64{1, 1})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("MulVecT = %v", dst)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, []float64{1, 2}, []float64{3, 4})
	// 2 * [1;2]·[3,4] = [[6,8],[12,16]]
	want := [][]float64{{6, 8}, {12, 16}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("AddOuter = %v", m.Data)
			}
		}
	}
}

func TestAddScaledAndScaleAll(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 1}})
	b, _ := FromRows([][]float64{{2, 3}})
	a.AddScaled(0.5, b)
	if a.At(0, 0) != 2 || a.At(0, 1) != 2.5 {
		t.Fatalf("AddScaled = %v", a.Data)
	}
	a.ScaleAll(2)
	if a.At(0, 0) != 4 || a.At(0, 1) != 5 {
		t.Fatalf("ScaleAll = %v", a.Data)
	}
}

func TestMatrixEqual(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{1, 2.0000001}})
	if !a.Equal(b, 1e-6) {
		t.Error("Equal within eps failed")
	}
	if a.Equal(b, 1e-9) {
		t.Error("Equal outside eps passed")
	}
	c := NewMatrix(2, 1)
	if a.Equal(c, 1) {
		t.Error("Equal with shape mismatch passed")
	}
}

func TestZero(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left nonzero element")
		}
	}
}

// Property: MulVec and MulVecT are adjoint — yᵀ(Mx) == (Mᵀy)ᵀx.
func TestAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := r.Intn(8)+1, r.Intn(8)+1
		m := NewMatrix(rows, cols)
		r.NormVec(m.Data, 0, 1)
		x := r.NormVec(make([]float64, cols), 0, 1)
		y := r.NormVec(make([]float64, rows), 0, 1)
		mx := make([]float64, rows)
		m.MulVec(mx, x)
		mty := make([]float64, cols)
		m.MulVecT(mty, y)
		return almostEq(Dot(y, mx), Dot(mty, x), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddOuter(alpha, a, b) then MulVec(x) equals old MulVec(x) plus
// alpha*a*(b·x) — the defining property of a rank-one update.
func TestAddOuterProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := r.Intn(6)+1, r.Intn(6)+1
		m := NewMatrix(rows, cols)
		r.NormVec(m.Data, 0, 1)
		a := r.NormVec(make([]float64, rows), 0, 1)
		b := r.NormVec(make([]float64, cols), 0, 1)
		x := r.NormVec(make([]float64, cols), 0, 1)
		before := make([]float64, rows)
		m.MulVec(before, x)
		m.AddOuter(0.7, a, b)
		after := make([]float64, rows)
		m.MulVec(after, x)
		bx := Dot(b, x)
		for i := range after {
			if !almostEq(after[i], before[i]+0.7*a[i]*bx, 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResizeAndAppendRows pins the reusable-output-buffer helpers: Resize
// keeps the backing array when it fits, and AppendRows returns capacity-capped
// views so growing one row cannot write into its neighbour.
func TestResizeAndAppendRows(t *testing.T) {
	var m Matrix
	m.Resize(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Resize(3,4) gave %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	first := &m.Data[0]
	m.Resize(2, 5)
	if &m.Data[0] != first || len(m.Data) != 10 {
		t.Fatal("shrinking Resize reallocated or mis-sized the backing array")
	}
	m.Resize(3, 4)
	rows := m.AppendRows(nil)
	if len(rows) != 3 {
		t.Fatalf("%d row views", len(rows))
	}
	rows[0] = append(rows[0], -1)
	if m.At(1, 0) == -1 {
		t.Fatal("append to a row view spilled into the next row")
	}
	rows[1][2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("row view does not alias the matrix")
	}
	if got := m.AppendRows(rows[:0]); len(got) != 3 || &got[2][0] != &m.Data[8] {
		t.Fatal("AppendRows into a reused header slice returned wrong views")
	}
}

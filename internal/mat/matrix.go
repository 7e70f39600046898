package mat

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero Matrix is empty and unusable; construct one with NewMatrix or
// FromRows. Data is stored in a single backing slice so that row access is a
// cheap re-slice and the whole matrix can be serialized in one write.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix. It panics if either dimension
// is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. It returns an
// error if the rows are ragged or empty.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("mat: FromRows with no rows")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mat: ragged row %d: got %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Resize reshapes m to rows×cols, reusing the backing array when it has the
// capacity. The contents after a Resize are unspecified: callers overwrite
// every element (output buffers refilled per call, packed panels).
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("mat: Resize with negative dimension")
	}
	m.Rows, m.Cols = rows, cols
	if need := rows * cols; cap(m.Data) < need {
		m.Data = make([]float64, need)
	} else {
		m.Data = m.Data[:need]
	}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// AppendRows appends one view per row of m to dst and returns it. The views
// share m's backing array — they are valid until m is resized or refilled —
// and are capacity-capped, so appending to one cannot spill into the next
// row.
func (m *Matrix) AppendRows(dst [][]float64) [][]float64 {
	for i := 0; i < m.Rows; i++ {
		dst = append(dst, m.Data[i*m.Cols:(i+1)*m.Cols:(i+1)*m.Cols])
	}
	return dst
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0. clear compiles to a runtime memclr, which
// is several times faster than the scalar store loop Fill generates.
func (m *Matrix) Zero() {
	clear(m.Data)
}

// MulVec computes dst = m · x where x has length m.Cols and dst has length
// m.Rows. It panics on dimension mismatch.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// MulVecT computes dst = mᵀ · x where x has length m.Rows and dst has length
// m.Cols. This is the backward pass of a dense layer, so it runs as a series
// of Axpy operations over contiguous rows for cache friendliness.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecT dimension mismatch")
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
}

// AddOuter accumulates the rank-one update m += alpha · a·bᵀ, where a has
// length m.Rows and b has length m.Cols. Dense-layer weight gradients are
// exactly this shape.
func (m *Matrix) AddOuter(alpha float64, a, b []float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("mat: AddOuter dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		Axpy(alpha*a[i], b, m.Row(i))
	}
}

// AddScaled accumulates m += alpha · other. It panics if shapes differ.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	Axpy(alpha, other.Data, m.Data)
}

// ScaleAll multiplies every element by alpha.
func (m *Matrix) ScaleAll(alpha float64) {
	Scale(alpha, m.Data)
}

// Equal reports whether m and other have the same shape and elements within
// tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d > eps || d < -eps {
			return false
		}
	}
	return true
}

// Package matrix implements the small dense linear algebra and sparse
// matrix kernels needed by the Markov-chain and MAP machinery: LU
// factorization with partial pivoting, inverses, matrix exponentials via
// scaling-and-squaring Padé approximation, and a CSR sparse format with
// iterative steady-state solvers living in package ctmc on top.
//
// The dense routines target the tiny matrices of MAP(2)/phase-type work
// (dimension 2..20); they favour clarity and numerical robustness over
// asymptotic speed.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a factorization or solve meets a
// numerically singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows needs at least one row and column")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("matrix: ragged row %d (len %d, want %d)", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Add returns m + other.
func (m *Dense) Add(other *Dense) *Dense {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out
}

// Sub returns m - other.
func (m *Dense) Sub(other *Dense) *Dense {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= other.Data[i]
	}
	return out
}

// Scale returns s*m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns the matrix product m * other.
func (m *Dense) Mul(other *Dense) *Dense {
	out := NewDense(m.Rows, other.Cols)
	m.MulTo(out, other)
	return out
}

// MulTo overwrites dst with the matrix product m * other. dst must be
// m.Rows-by-other.Cols and must not share storage with m or other.
func (m *Dense) MulTo(dst, other *Dense) {
	if m.Cols != other.Rows || dst.Rows != m.Rows || dst.Cols != other.Cols {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d * %dx%d into %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols, dst.Rows, dst.Cols))
	}
	clear(dst.Data)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := other.Data[k*other.Cols : (k+1)*other.Cols]
			outRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, b := range row {
				outRow[j] += a * b
			}
		}
	}
}

// MulVec returns the matrix-vector product m * v.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("matrix: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			sum += a * v[j]
		}
		out[i] = sum
	}
	return out
}

// VecMul returns the vector-matrix product v * m (v treated as a row
// vector). This is the natural operation for probability vectors.
func (m *Dense) VecMul(v []float64) []float64 {
	out := make([]float64, m.Cols)
	m.VecMulTo(out, v)
	return out
}

// VecMulTo overwrites dst with the vector-matrix product v * m. dst must
// have length m.Cols and must not share storage with v.
func (m *Dense) VecMulTo(dst, v []float64) {
	if m.Rows != len(v) || m.Cols != len(dst) {
		panic(fmt.Sprintf("matrix: VecMul shape mismatch %d * %dx%d into %d", len(v), m.Rows, m.Cols, len(dst)))
	}
	clear(dst)
	for i, a := range v {
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range row {
			dst[j] += a * b
		}
	}
}

// Transpose returns m transposed.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// RowSums returns the vector of row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j)
		}
		out[i] = sum
	}
	return out
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%12.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Dense) mustSameShape(other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Dense) mustSquare() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("matrix: %dx%d is not square", m.Rows, m.Cols))
	}
}

// LU holds an LU factorization with partial pivoting: P*A = L*U. The
// zero value is an empty factorization ready for Factorize.
type LU struct {
	lu    Dense
	pivot []int
	signP float64
	work  []float64 // InverseTo's unit-vector and column scratch
}

// Factor computes the LU factorization of square matrix a with partial
// pivoting. It returns ErrSingular for numerically singular input.
func Factor(a *Dense) (*LU, error) {
	f := &LU{}
	if err := f.Factorize(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factorize overwrites f with the LU factorization of square matrix a,
// reusing f's storage when it is large enough, so repeated
// factorizations of same-order matrices allocate nothing. It returns
// ErrSingular for numerically singular input, leaving f unusable until
// the next successful Factorize.
func (f *LU) Factorize(a *Dense) error {
	a.mustSquare()
	n := a.Rows
	if cap(f.lu.Data) < n*n {
		f.lu.Data = make([]float64, n*n)
	}
	if cap(f.pivot) < n {
		f.pivot = make([]int, n)
	}
	f.lu = Dense{Rows: n, Cols: n, Data: f.lu.Data[:n*n]}
	f.pivot = f.pivot[:n]
	lu, pivot := &f.lu, f.pivot
	copy(lu.Data, a.Data)
	sign := 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Find pivot row.
		p := col
		max := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > max {
				max, p = a, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[p*n+j]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		d := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / d
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)-f*lu.At(col, j))
			}
		}
	}
	f.signP = sign
	return nil
}

// Solve solves A*x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.Rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A*x = b into x using the factorization. x must have
// the matrix order as length and must not share storage with b.
func (f *LU) SolveTo(x, b []float64) error {
	n := f.lu.Rows
	if len(b) != n {
		return fmt.Errorf("matrix: Solve rhs length %d, want %d", len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("matrix: Solve solution length %d, want %d", len(x), n)
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		x[i] /= d
	}
	return nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	det := f.signP
	for i := 0; i < f.lu.Rows; i++ {
		det *= f.lu.At(i, i)
	}
	return det
}

// Solve solves A*x = b for square A.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A^{-1}, or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	inv := NewDense(a.Rows, a.Rows)
	if err := f.InverseTo(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseTo overwrites dst with A^{-1}, solving one unit vector per
// column with the factorization. dst must be square of the matrix order.
// The column scratch lives in f, so repeated inverses allocate nothing.
func (f *LU) InverseTo(dst *Dense) error {
	n := f.lu.Rows
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("matrix: InverseTo %dx%d destination for order %d", dst.Rows, dst.Cols, n))
	}
	if cap(f.work) < 2*n {
		f.work = make([]float64, 2*n)
	}
	e, col := f.work[:n], f.work[n:2*n]
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		if err := f.SolveTo(col, e); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst.Set(i, j, col[i])
		}
	}
	return nil
}

// Expm returns the matrix exponential e^A computed with the
// scaling-and-squaring method and a degree-6 Padé approximant. This is
// accurate for the small generator matrices used in phase-type and MAP
// calculations.
func Expm(a *Dense) *Dense {
	a.mustSquare()
	n := a.Rows
	// Scale A down until its max-abs entry is below 0.5.
	norm := a.MaxAbs()
	squarings := 0
	scaled := a.Clone()
	if norm > 0.5 {
		squarings = int(math.Ceil(math.Log2(norm / 0.5)))
		scaled = a.Scale(1 / math.Pow(2, float64(squarings)))
	}
	// Padé(6,6): N(A) = sum c_k A^k, D(A) = sum c_k (-A)^k.
	const degree = 6
	c := make([]float64, degree+1)
	c[0] = 1
	for k := 1; k <= degree; k++ {
		c[k] = c[k-1] * float64(degree-k+1) / float64(k*(2*degree-k+1))
	}
	num := Identity(n).Scale(c[0])
	den := Identity(n).Scale(c[0])
	pow := Identity(n)
	for k := 1; k <= degree; k++ {
		pow = pow.Mul(scaled)
		num = num.Add(pow.Scale(c[k]))
		if k%2 == 0 {
			den = den.Add(pow.Scale(c[k]))
		} else {
			den = den.Sub(pow.Scale(c[k]))
		}
	}
	denInv, err := Inverse(den)
	if err != nil {
		// The Padé denominator of a sufficiently scaled matrix is always
		// well conditioned; reaching this indicates NaN/Inf input.
		panic(fmt.Sprintf("matrix: Expm denominator singular: %v", err))
	}
	res := denInv.Mul(num)
	for s := 0; s < squarings; s++ {
		res = res.Mul(res)
	}
	return res
}

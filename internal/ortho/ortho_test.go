package ortho

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

func randMatrix(n, s int, seed int64) *linalg.Dense {
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(n, s)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * 4
	}
	return m
}

func randDegrees(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + float64(r.Intn(20))
	}
	return d
}

func checkDOrthogonal(t *testing.T, res Result, d []float64, method Method) {
	t.Helper()
	s := res.S
	ones := make([]float64, s.Rows)
	linalg.Fill(ones, 1)
	tol := 1e-8
	if method == CGS {
		tol = 1e-6 // classical GS is less numerically robust (the tradeoff Table 7 buys speed with)
	}
	for i := 0; i < s.Cols; i++ {
		ci := s.Col(i)
		// Unit Euclidean norm.
		if n := linalg.Norm2(ci); math.Abs(n-1) > tol {
			t.Fatalf("column %d norm %g", i, n)
		}
		// D-orthogonal to the constant vector.
		var dot float64
		if d == nil {
			dot = linalg.Dot(ones, ci)
		} else {
			dot = linalg.DDot(ones, d, ci)
		}
		if math.Abs(dot) > tol*float64(s.Rows) {
			t.Fatalf("column %d not D-orthogonal to 1: %g", i, dot)
		}
		for j := i + 1; j < s.Cols; j++ {
			var dot float64
			if d == nil {
				dot = linalg.Dot(ci, s.Col(j))
			} else {
				dot = linalg.DDot(ci, d, s.Col(j))
			}
			if math.Abs(dot) > tol*10 {
				t.Fatalf("columns %d,%d not D-orthogonal: %g", i, j, dot)
			}
		}
		// Reported D-norms must match.
		var dn float64
		if d == nil {
			dn = linalg.Dot(ci, ci)
		} else {
			dn = linalg.DDot(ci, d, ci)
		}
		if math.Abs(dn-res.DNorms[i]) > 1e-9*(1+dn) {
			t.Fatalf("column %d DNorm reported %g, actual %g", i, res.DNorms[i], dn)
		}
	}
}

func TestMGSPlainOrthonormal(t *testing.T) {
	b := randMatrix(2000, 8, 1)
	res := orthogonalize(b, nil, MGS)
	if res.S.Cols != 8 || res.Dropped != 0 {
		t.Fatalf("kept %d dropped %d", res.S.Cols, res.Dropped)
	}
	checkDOrthogonal(t, res, nil, MGS)
}

func TestMGSWeightedDOrthogonal(t *testing.T) {
	b := randMatrix(2000, 8, 2)
	d := randDegrees(2000, 3)
	res := orthogonalize(b, d, MGS)
	checkDOrthogonal(t, res, d, MGS)
}

func TestCGSWeightedDOrthogonal(t *testing.T) {
	b := randMatrix(2000, 8, 4)
	d := randDegrees(2000, 5)
	res := orthogonalize(b, d, CGS)
	checkDOrthogonal(t, res, d, CGS)
}

func TestDropsDependentColumns(t *testing.T) {
	n := 1000
	b := randMatrix(n, 5, 6)
	// Column 2 := 2·column 0 + 3·column 1 (exactly dependent).
	c0, c1, c2 := b.Col(0), b.Col(1), b.Col(2)
	for i := 0; i < n; i++ {
		c2[i] = 2*c0[i] + 3*c1[i]
	}
	for _, method := range []Method{MGS, CGS} {
		res := orthogonalize(b, nil, method)
		if res.Dropped != 1 {
			t.Fatalf("%v: dropped %d, want 1", method, res.Dropped)
		}
		if res.S.Cols != 4 {
			t.Fatalf("%v: kept %d, want 4", method, res.S.Cols)
		}
		for _, k := range res.Kept {
			if k == 2 {
				t.Fatalf("%v: dependent column 2 kept", method)
			}
		}
	}
}

func TestDropsConstantColumn(t *testing.T) {
	// A constant column is parallel to s0 = 1/√n and must be discarded —
	// the "degenerate vector" of Algorithm 3 line 16.
	b := randMatrix(500, 3, 7)
	linalg.Fill(b.Col(1), 42)
	res := orthogonalize(b, nil, MGS)
	if res.Dropped != 1 || res.S.Cols != 2 {
		t.Fatalf("dropped %d kept %d", res.Dropped, res.S.Cols)
	}
}

func TestDropsZeroColumn(t *testing.T) {
	b := randMatrix(500, 3, 8)
	linalg.Fill(b.Col(0), 0)
	res := orthogonalize(b, nil, MGS)
	if res.Dropped != 1 || res.S.Cols != 2 {
		t.Fatalf("dropped %d kept %d", res.Dropped, res.S.Cols)
	}
}

func TestCGSAndMGSSpanSameSubspace(t *testing.T) {
	// Both methods orthogonalize against the same prefix, so each MGS
	// column must lie in the span of the CGS columns (and vice versa):
	// projecting onto the other basis reproduces the vector.
	b := randMatrix(1500, 6, 9)
	d := randDegrees(1500, 10)
	mgs := orthogonalize(b, d, MGS)
	cgs := orthogonalize(b, d, CGS)
	if mgs.S.Cols != cgs.S.Cols {
		t.Fatalf("kept mismatch: %d vs %d", mgs.S.Cols, cgs.S.Cols)
	}
	for i := 0; i < mgs.S.Cols; i++ {
		v := mgs.S.Col(i)
		// residual = v − Σ_j (⟨cgs_j, v⟩_D / ⟨cgs_j, cgs_j⟩_D)·cgs_j
		res := make([]float64, len(v))
		copy(res, v)
		for j := 0; j < cgs.S.Cols; j++ {
			cj := cgs.S.Col(j)
			coef := linalg.DDot(cj, d, res) / cgs.DNorms[j]
			linalg.Axpy(-coef, cj, res)
		}
		if r := linalg.Norm2(res); r > 1e-5 {
			t.Fatalf("MGS column %d outside CGS span: residual %g", i, r)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	b := linalg.NewDense(100, 0)
	res := orthogonalize(b, nil, MGS)
	if res.S.Cols != 0 || res.Dropped != 0 {
		t.Fatalf("empty input: kept %d dropped %d", res.S.Cols, res.Dropped)
	}
}

func TestMethodString(t *testing.T) {
	if MGS.String() != "MGS" || CGS.String() != "CGS" {
		t.Fatal("method names wrong")
	}
}

func TestIncrementalMatchesBatchMGS(t *testing.T) {
	b := randMatrix(1500, 7, 11)
	d := randDegrees(1500, 12)
	batch := orthogonalize(b, d, MGS)
	inc := NewIncrementalBudget(parallel.Live(), 1500, b.Cols, d, nil)
	for j := 0; j < b.Cols; j++ {
		inc.Add(b.Col(j))
	}
	res := inc.Result()
	if res.S.Cols != batch.S.Cols || res.Dropped != batch.Dropped {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", res.S.Cols, res.Dropped, batch.S.Cols, batch.Dropped)
	}
	for i := range batch.S.Data {
		if batch.S.Data[i] != res.S.Data[i] {
			t.Fatal("incremental and batch MGS differ")
		}
	}
	for i := range batch.DNorms {
		if batch.DNorms[i] != res.DNorms[i] {
			t.Fatal("DNorms differ")
		}
	}
	for i := range batch.Kept {
		if batch.Kept[i] != res.Kept[i] {
			t.Fatal("kept indices differ")
		}
	}
}

func TestIncrementalDropsAndPanics(t *testing.T) {
	inc := NewIncrementalBudget(parallel.Live(), 100, 3, nil, nil)
	col := make([]float64, 100)
	for i := range col {
		col[i] = float64(i)
	}
	if !inc.Add(col) {
		t.Fatal("independent column dropped")
	}
	if inc.Add(col) {
		t.Fatal("duplicate column kept")
	}
	zero := make([]float64, 100)
	if inc.Add(zero) {
		t.Fatal("zero column kept")
	}
	res := inc.Result()
	if res.S.Cols != 1 || res.Dropped != 2 || res.Kept[0] != 0 {
		t.Fatalf("result %+v", res)
	}
	for name, f := range map[string]func(){
		"dimension mismatch": func() { NewIncrementalBudget(parallel.Live(), 10, 1, nil, nil).Add(make([]float64, 5)) },
		"more columns kept than sized for": func() {
			full := NewIncrementalBudget(parallel.Live(), 100, 1, nil, nil)
			full.Add(col)
			full.Add(randMatrix(100, 1, 5).Col(0))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on %s", name)
				}
			}()
			f()
		}()
	}
}

// TestPanelMGSMatchesLevel1 is the panel-blocking property test: panel
// MGS must keep and drop exactly the same columns as the unblocked
// Level-1 oracle and produce the same orthonormal basis to within float
// tolerance, across adversarial widths (s below, at, and past PanelCols
// boundaries, including s=0 and s=1) with and without the D weighting.
// Panel widths alter the projection summation order, so the comparison is
// tolerance-based rather than bitwise; D-orthogonality itself is checked
// at the tight MGS tolerance.
func TestPanelMGSMatchesLevel1(t *testing.T) {
	for _, n := range []int{50, 700, 2600} {
		for _, s := range []int{0, 1, 7, 8, 9, 17, 63} {
			if s >= n {
				continue
			}
			b := randMatrix(n, s, int64(101*n+s))
			for _, d := range [][]float64{nil, randDegrees(n, int64(7*n+s))} {
				panel := orthogonalize(b, d, MGS)
				l1 := mgsLevel1(parallel.Live(), b, d, nil)
				if len(panel.Kept) != len(l1.Kept) || panel.Dropped != l1.Dropped {
					t.Fatalf("n=%d s=%d d=%v: panel kept/dropped %d/%d, level-1 %d/%d",
						n, s, d != nil, len(panel.Kept), panel.Dropped, len(l1.Kept), l1.Dropped)
				}
				for j := range panel.Kept {
					if panel.Kept[j] != l1.Kept[j] {
						t.Fatalf("n=%d s=%d: kept sets differ at %d: %d vs %d", n, s, j, panel.Kept[j], l1.Kept[j])
					}
				}
				checkDOrthogonal(t, panel, d, MGS)
				// Well-conditioned random input: the two sweeps must agree
				// column by column, not just span the same subspace.
				for j := 0; j < panel.S.Cols; j++ {
					pc, lc := panel.S.Col(j), l1.S.Col(j)
					for i := range pc {
						if math.Abs(pc[i]-lc[i]) > 1e-9 {
							t.Fatalf("n=%d s=%d col %d row %d: panel %g, level-1 %g", n, s, j, i, pc[i], lc[i])
						}
					}
				}
			}
		}
	}
}

// TestPanelMGSDegenerateColumns drives the panel path through heavy
// drops: duplicated columns, zero columns, and constant columns mixed in
// ensure the kept-column panels stay consistent when the kept set is much
// smaller than the input and column indices are not contiguous.
func TestPanelMGSDegenerateColumns(t *testing.T) {
	n := 1500
	b := randMatrix(n, 9, 3)
	copy(b.Col(2), b.Col(0))    // exact duplicate
	linalg.Fill(b.Col(4), 0)    // zero column
	linalg.Fill(b.Col(6), 3.25) // constant column (parallel to s0)
	copy(b.Col(8), b.Col(1))    // another duplicate
	d := randDegrees(n, 4)
	panel := orthogonalize(b, d, MGS)
	l1 := mgsLevel1(parallel.Live(), b, d, nil)
	if panel.Dropped != 4 || l1.Dropped != 4 {
		t.Fatalf("dropped %d (panel) / %d (level-1), want 4", panel.Dropped, l1.Dropped)
	}
	for j := range panel.Kept {
		if panel.Kept[j] != l1.Kept[j] {
			t.Fatalf("kept sets differ: %v vs %v", panel.Kept, l1.Kept)
		}
	}
	checkDOrthogonal(t, panel, d, MGS)
}

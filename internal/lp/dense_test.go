package lp

import "math"

// solveDense is the reference the bounded-variable simplex is checked
// against: a textbook dense two-phase primal simplex in which every bound
// is a row of its own — x_i <= 1 for a binary, and x_i >= lo / x_i <= hi
// for a fixing (fixLo[i], fixHi[i]; -1 leaves the side free) — with one
// slack or surplus per row, an artificial column per GE or EQ row after
// sign normalisation, and Bland's rule on both sides of the ratio test. It
// builds a fresh tableau on every call. This was the solver's product path
// before the bounded form; it stays here as the oracle.
func solveDense(p *Problem, fixLo, fixHi []float64) *Solution {
	type row struct {
		coefs map[int]float64
		sense Sense
		rhs   float64
	}
	var rows []row
	for _, c := range p.Constraints {
		coefs := make(map[int]float64, len(c.Terms))
		for _, t := range c.Terms {
			coefs[t.Col] = t.Coef
		}
		rows = append(rows, row{coefs: coefs, sense: c.Sense, rhs: c.RHS})
	}
	for i := 0; i < p.NumVars; i++ {
		lo, hi := 0.0, math.Inf(1)
		if p.Binary != nil && p.Binary[i] {
			hi = 1
		}
		if fixLo != nil && fixLo[i] >= 0 {
			lo = fixLo[i]
		}
		if fixHi != nil && fixHi[i] >= 0 {
			hi = fixHi[i]
		}
		if hi < math.Inf(1) {
			rows = append(rows, row{coefs: map[int]float64{i: 1}, sense: LE, rhs: hi})
		}
		if lo > 0 {
			rows = append(rows, row{coefs: map[int]float64{i: 1}, sense: GE, rhs: lo})
		}
	}

	m := len(rows)
	n := p.NumVars

	// Standard form: one slack/surplus per inequality row, an artificial
	// per GE or EQ row once every RHS is non-negative. Column layout:
	// [structural | slack/surplus | artificial | RHS].
	norm := make([]row, m)
	for i, r := range rows {
		nr := row{coefs: make(map[int]float64, len(r.coefs)), sense: r.sense, rhs: r.rhs}
		for k, v := range r.coefs {
			nr.coefs[k] = v
		}
		if nr.rhs < 0 {
			for k := range nr.coefs {
				nr.coefs[k] = -nr.coefs[k]
			}
			nr.rhs = -nr.rhs
			switch nr.sense {
			case LE:
				nr.sense = GE
			case GE:
				nr.sense = LE
			}
		}
		norm[i] = nr
	}
	nSlack, nArt := 0, 0
	for _, r := range norm {
		if r.sense != EQ {
			nSlack++
		}
		if r.sense != LE {
			nArt++
		}
	}
	cols := n + nSlack + nArt
	T := make([][]float64, m+1)
	for i := range T {
		T[i] = make([]float64, cols+1)
	}
	basis := make([]int, m)

	si, ai := n, n+nSlack
	artCols := make([]int, 0, nArt)
	for i, r := range norm {
		for k, v := range r.coefs {
			T[i][k] = v
		}
		T[i][cols] = r.rhs
		switch r.sense {
		case LE:
			T[i][si] = 1
			basis[i] = si
			si++
		case GE:
			T[i][si] = -1
			si++
			T[i][ai] = 1
			basis[i] = ai
			artCols = append(artCols, ai)
			ai++
		case EQ:
			T[i][ai] = 1
			basis[i] = ai
			artCols = append(artCols, ai)
			ai++
		}
	}

	isArt := make([]bool, cols)
	for _, c := range artCols {
		isArt[c] = true
	}

	// Phase 1: minimize the sum of the artificials.
	if nArt > 0 {
		obj := T[m]
		for _, c := range artCols {
			obj[c] = 1
		}
		for i := 0; i < m; i++ {
			if isArt[basis[i]] {
				for j := 0; j <= cols; j++ {
					obj[j] -= T[i][j]
				}
			}
		}
		if !densePivotLoop(T, basis, m, cols) {
			return &Solution{Status: StatusUnbounded}
		}
		if T[m][cols] < -eps {
			return &Solution{Status: StatusInfeasible}
		}
		// Drive remaining artificials out of the basis where a row allows;
		// a redundant row keeps its artificial at 0.
		for i := 0; i < m; i++ {
			if !isArt[basis[i]] {
				continue
			}
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(T[i][j]) > pivotEps {
					densePivot(T, basis, m, cols, i, j)
					break
				}
			}
		}
	}

	// Phase 2: the original objective, artificial columns zeroed so that
	// they never re-enter.
	obj := T[m]
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, p.Objective)
	for i := 0; i < m; i++ {
		for _, c := range artCols {
			T[i][c] = 0
		}
	}
	for i := 0; i < m; i++ {
		b := basis[i]
		if b < cols && math.Abs(obj[b]) > eps {
			f := obj[b]
			for j := 0; j <= cols; j++ {
				obj[j] -= f * T[i][j]
			}
		}
	}
	if !densePivotLoop(T, basis, m, cols) {
		return &Solution{Status: StatusUnbounded}
	}

	x := make([]float64, p.NumVars)
	for i := 0; i < m; i++ {
		if basis[i] < p.NumVars {
			x[basis[i]] = T[i][cols]
		}
	}
	return &Solution{Status: StatusOptimal, X: x, Objective: p.ObjectiveValue(x)}
}

// densePivotLoop runs primal simplex pivots until optimality (true) or
// reports unboundedness (false). Bland's rule guarantees termination.
func densePivotLoop(T [][]float64, basis []int, m, cols int) bool {
	obj := T[m]
	for {
		enter := -1
		for j := 0; j < cols; j++ {
			if obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if T[i][enter] > pivotEps {
				ratio := T[i][cols] / T[i][enter]
				if ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return false
		}
		densePivot(T, basis, m, cols, leave, enter)
	}
}

// densePivot performs a Gauss-Jordan pivot on (row, col).
func densePivot(T [][]float64, basis []int, m, cols, row, col int) {
	pr := T[row]
	inv := 1 / pr[col]
	for j := 0; j <= cols; j++ {
		pr[j] *= inv
	}
	pr[col] = 1
	for i := 0; i <= m; i++ {
		if i == row {
			continue
		}
		f := T[i][col]
		if f == 0 {
			continue
		}
		ri := T[i]
		for j := 0; j <= cols; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	basis[row] = col
}

package lp

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzSolveMIP turns bytes into a binary program of at most 12 variables
// and 6 rows of every sense (decodeProgram) and requires branch-and-bound to
// agree with brute force on status and optimum, at a feasible binary point
// that carries exactly its own objective. Corpus (testdata/fuzz/FuzzSolveMIP,
// encodeProgram's output for each named program): TestDegenerateCycling's
// instance with its variables binary, a CoPhy-shaped program whose pins
// exceed its budget, and the same program with the budget raised.
func FuzzSolveMIP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		if why := disagreesWithBruteForce(p); why != "" {
			t.Fatalf("%s\nprogram: %+v", why, *p)
		}
	})
}

// decodeProgram reads a binary program from fuzz bytes: byte 0 gives the
// variables (1 + b%12), byte 1 the rows (b%7); then the objective, and per
// row a sense byte (b%3: LE, GE, EQ), its right-hand side and one
// coefficient per variable. A number is a little-endian int16 in
// hundredths. Missing bytes read as zero.
func decodeProgram(data []byte) *Problem {
	next := func(k int) []byte {
		b := make([]byte, k)
		data = data[copy(b, data):]
		return b
	}
	number := func() float64 { return float64(int16(binary.LittleEndian.Uint16(next(2)))) / 100 }
	head := next(2)
	n, m := 1+int(head[0])%12, int(head[1])%7
	p := NewProblem(n)
	for i := range p.Objective {
		p.Binary[i] = true
		p.Objective[i] = number()
	}
	for r := 0; r < m; r++ {
		sense := Sense(next(1)[0] % 3)
		rhs := number()
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			coefs[i] = number()
		}
		p.AddConstraint(coefs, sense, rhs)
	}
	return p
}

// encodeProgram is decodeProgram's inverse for a binary program whose
// numbers are whole hundredths within int16.
func encodeProgram(p *Problem) []byte {
	out := []byte{byte(p.NumVars - 1), byte(len(p.Constraints))}
	number := func(v float64) {
		out = binary.LittleEndian.AppendUint16(out, uint16(int16(math.Round(v*100))))
	}
	for _, c := range p.Objective {
		number(c)
	}
	for _, c := range p.Constraints {
		out = append(out, byte(c.Sense))
		number(c.RHS)
		row := make([]float64, p.NumVars)
		for _, t := range c.Terms {
			row[t.Col] = t.Coef
		}
		for _, v := range row {
			number(v)
		}
	}
	return out
}

// corpusPrograms are the named programs of FuzzSolveMIP's committed corpus.
func corpusPrograms() map[string]*Problem {
	binaries := func(n int) *Problem {
		p := NewProblem(n)
		for i := range p.Binary {
			p.Binary[i] = true
		}
		return p
	}
	degenerate := binaries(4)
	degenerate.Objective = []float64{-0.75, 150, -0.02, 6}
	degenerate.AddConstraint(map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, LE, 0)
	degenerate.AddConstraint(map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, LE, 0)
	degenerate.AddConstraint(map[int]float64{2: 1}, LE, 1)

	// y0, y1 (3 and 4 pages), then one query's atoms: x2 uses no index, x3
	// uses y0, x4 uses y1. Both indexes are pinned, so a budget under 7
	// pages makes the program infeasible.
	cophy := func(budget float64) *Problem {
		p := binaries(5)
		p.Objective = []float64{0, 0, 40, 12, 9}
		p.AddConstraint(map[int]float64{0: 3, 1: 4}, LE, budget)
		p.AddConstraint(map[int]float64{3: 1, 0: -1}, LE, 0)
		p.AddConstraint(map[int]float64{4: 1, 1: -1}, LE, 0)
		p.AddConstraint(map[int]float64{2: 1, 3: 1, 4: 1}, EQ, 1)
		p.AddConstraint(map[int]float64{0: 1}, EQ, 1)
		p.AddConstraint(map[int]float64{1: 1}, EQ, 1)
		return p
	}
	return map[string]*Problem{
		"degenerate_cycling": degenerate,
		"pinned_infeasible":  cophy(5),
		"pinned_feasible":    cophy(7),
	}
}

// TestFuzzCorpusHoldsItsPrograms keeps the committed corpus what its names
// say: each file holds encodeProgram's output for its named program, so a
// change to the byte format fails here instead of quietly emptying the
// corpus of its cases.
func TestFuzzCorpusHoldsItsPrograms(t *testing.T) {
	for name, p := range corpusPrograms() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSolveMIP", name))
		if err != nil {
			t.Fatal(err)
		}
		literal, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		got, err := strconv.Unquote(strings.TrimSuffix(literal, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := encodeProgram(p); got != string(want) {
			t.Errorf("%s: corpus file holds %q, encodeProgram gives %q", name, got, want)
		}
	}
}

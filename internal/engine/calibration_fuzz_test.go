package engine

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCalibration feeds outside bytes to the calibration loader.
// Whatever it does not refuse is a calibration that validates, that holds
// what the whole input says — json.Unmarshal, which refuses anything after
// the one value, reads the same constants over the defaults — and that
// survives WriteFile and a reload with every constant bit for bit. Corpus
// (testdata/fuzz/FuzzLoadCalibration): the default profile as WriteFile
// writes it, an empty object, an object followed by a second one and
// trailing garbage (once loaded as its first object alone), an unknown
// field and a zero constant.
func FuzzLoadCalibration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCalibration(in)
		if err != nil {
			return
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("a loaded calibration does not validate: %v", err)
		}
		whole := DefaultCalibration()
		if err := json.Unmarshal(data, whole); err != nil {
			t.Fatalf("loaded %+v from bytes that are not one JSON value: %v", loaded, err)
		}
		sameConstants(t, "loaded, against the whole input", loaded, whole)

		out := filepath.Join(dir, "out.json")
		if err := loaded.WriteFile(out); err != nil {
			t.Fatalf("a loaded calibration does not write: %v", err)
		}
		again, err := LoadCalibration(out)
		if err != nil {
			t.Fatalf("a written calibration does not load: %v", err)
		}
		sameConstants(t, "written and reloaded", again, loaded)
	})
}

// sameConstants requires got's cost constants to be want's, bit for bit.
func sameConstants(t *testing.T, what string, got, want *Calibration) {
	t.Helper()
	g, w := got.Params(), want.Params()
	pairs := [][2]float64{
		{g.SeqPageCost, w.SeqPageCost}, {g.RandomPageCost, w.RandomPageCost},
		{g.CPUTupleCost, w.CPUTupleCost}, {g.CPUIndexTupleCost, w.CPUIndexTupleCost},
		{g.CPUOperatorCost, w.CPUOperatorCost}, {g.EffectiveCacheSize, w.EffectiveCacheSize},
	}
	for _, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: constants %+v, want %+v", what, g, w)
		}
	}
}

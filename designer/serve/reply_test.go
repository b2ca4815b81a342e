package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/designer"
)

// queryBenefitJSON and reportJSON are the reply structs a report was copied
// into for encoding/json before the report encoder wrote the facade's rows
// itself. They are kept here as the reference its bytes are held to.
type queryBenefitJSON struct {
	ID         string  `json:"id"`
	BaseCost   float64 `json:"base_cost"`
	NewCost    float64 `json:"new_cost"`
	BenefitPct float64 `json:"benefit_pct"`
}

type reportJSON struct {
	BaseTotal     float64            `json:"base_total"`
	NewTotal      float64            `json:"new_total"`
	BenefitPct    float64            `json:"benefit_pct"`
	QueryBenefits []queryBenefitJSON `json:"queries"`
}

func toReportJSON(rep *designer.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{
		BaseTotal:     rep.BaseTotal,
		NewTotal:      rep.NewTotal,
		BenefitPct:    rep.AvgBenefitPct(),
		QueryBenefits: make([]queryBenefitJSON, len(rep.Queries)),
	}
	for i, qb := range rep.Queries {
		out.QueryBenefits[i] = queryBenefitJSON{
			ID: qb.ID, BaseCost: qb.BaseCost, NewCost: qb.NewCost, BenefitPct: qb.BenefitPct(),
		}
	}
	return out
}

// internalEnvelope fails unless rec holds a 500 with the internal code in
// the error envelope.
func internalEnvelope(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var env errorEnvelopeJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != codeInternal {
		t.Fatalf("an unencodable reply answers %d %q (%v), want 500 in the %s envelope", rec.Code, rec.Body.Bytes(), err, codeInternal)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("an unencodable reply answers Content-Type %q", ct)
	}
}

// TestUnencodableReplyIsInternal holds the reply writers to encoding
// before answering: a body with a NaN or an infinity anywhere in it is a 500
// internal in the error envelope, never the route's status over an empty or
// cut body — through encoding/json, through the streamed report, and
// through a report embedded in an advice reply.
func TestUnencodableReplyIsInternal(t *testing.T) {
	rep := func(base, nw float64) report {
		return report{&designer.Report{BaseTotal: 3, NewTotal: 2, Queries: []designer.QueryBenefit{
			{ID: "q0", BaseCost: 1, NewCost: 1}, {ID: "q1", BaseCost: base, NewCost: nw},
		}}}
	}
	for _, c := range []struct {
		name string
		body any
	}{
		{"a NaN in a map", map[string]any{"ok": 1, "x": math.NaN()}},
		{"an infinity in a struct", struct{ X float64 }{math.Inf(-1)}},
		{"a report with a NaN cost", rep(1, math.NaN())},
		{"a report with an infinite cost", rep(math.Inf(1), 1)},
		{"a report whose benefit overflows", rep(5e-324, -math.MaxFloat64)},
		{"a report whose totals are NaN", report{&designer.Report{BaseTotal: math.NaN()}}},
		{"an advice reply with a NaN report", map[string]any{"indexes": []string{}, "report": rep(math.NaN(), 1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusCreated, c.body)
			internalEnvelope(t, rec)
		})
	}
}

// floatBytes packs costs as the fuzz target reads them: eight bytes each,
// little-endian IEEE 754.
func floatBytes(fs ...float64) []byte {
	out := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out
}

// FuzzReportReplyMatchesEncodingJSON holds the report encoder to the reply
// structs encoding/json used to write. The input is a report: IDs
// ('|'-separated), costs (eight bytes each, cycled over the rows' base and
// new costs), the two totals, and a repeat count that lengthens the report
// across the stream's chunk boundaries. A streamed evaluate reply must equal
// json.Encoder's bytes for the reference structs, trailing newline
// included, and the report embedded in an advice reply must equal
// json.Marshal's; where encoding/json refuses the report (a value that is
// not finite), both must refuse it: a 500 internal, and a marshal error.
func FuzzReportReplyMatchesEncodingJSON(f *testing.F) {
	f.Add("q0|q1", floatBytes(120.5, 80.25, 7, 7), 127.5, 87.25, uint8(0))
	f.Add("<script>&amp;|a\u2028b\u2029c|\x00\x01\b\f\n\r\t\x1f\x7f|\xff\xfe bad \xc3|#q#|\"\\/", floatBytes(0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, 0, math.MaxFloat64, 1, 2.2250738585072014e-308, 1e-6), 0.0, 1.0, uint8(3))
	f.Add("q", floatBytes(0, 12.5, 2.2250738585072014e-308, 1e-6, 999999999999999999999.0, 1e20), 0.0, 0.0, uint8(200))
	f.Add(strings.Repeat("long id ", 700)+"|short", floatBytes(1, 2, 3), 6.0, 4.5, uint8(2))
	f.Add("", []byte{}, math.Copysign(0, -1), -1e-300, uint8(1))
	f.Add("nan", floatBytes(math.NaN(), 1), 1.0, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, ids string, costs []byte, baseTotal, newTotal float64, repeat uint8) {
		var vals []float64
		for ; len(costs) >= 8; costs = costs[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(costs)))
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		rep := &designer.Report{BaseTotal: baseTotal, NewTotal: newTotal}
		names := strings.Split(ids, "|")
		for r := 0; r <= int(repeat)%40; r++ {
			for _, id := range names {
				k := len(rep.Queries)
				rep.Queries = append(rep.Queries, designer.QueryBenefit{
					ID: id, BaseCost: vals[(2*k)%len(vals)], NewCost: vals[(2*k+1)%len(vals)],
				})
			}
		}

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(toReportJSON(rep))
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, report{rep})
		if wantErr != nil {
			internalEnvelope(t, rec)
		} else if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("the streamed report answers %d\n%s\nencoding/json writes\n%s", rec.Code, rec.Body.Bytes(), want.Bytes())
		}

		got, gotErr := json.Marshal(map[string]any{"report": report{rep}})
		ref, refErr := json.Marshal(map[string]any{"report": toReportJSON(rep)})
		if (gotErr != nil) != (refErr != nil) || !bytes.Equal(got, ref) {
			t.Fatalf("the embedded report marshals to\n%s (%v)\nencoding/json to\n%s (%v)", got, gotErr, ref, refErr)
		}
	})
}

// TestNilReportIsNull holds the one case the fuzzer cannot build: an advice
// with no report encodes it as null, as the nil reply struct did.
func TestNilReportIsNull(t *testing.T) {
	got, err := json.Marshal(map[string]any{"report": report{}})
	if err != nil || string(got) != `{"report":null}` {
		t.Fatalf("a nil report marshals to %s (%v), want null", got, err)
	}
}

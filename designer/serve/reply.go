package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/designer"
)

// replyBufs pools the buffers replies are written through: a whole reply
// for writeJSON, a few KB at a time for a streamed report.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// reportChunk is how much of a streamed report is buffered before it is
// handed to the ResponseWriter.
const reportChunk = 4 << 10

// writeJSON answers code with v as compact JSON: an indented reply is a
// third larger and the encoder renders it twice. It encodes v before it
// writes the status, so a reply encoding/json refuses (a NaN or an infinity
// anywhere in it) is a 500 internal, not the route's status over an empty
// body. A report streams (writeReport).
func writeJSON(w http.ResponseWriter, code int, v any) {
	if rep, ok := v.(report); ok {
		writeReport(w, code, rep)
		return
	}
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, unencodable(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// unencodable is the 500 a reply that cannot be encoded answers with.
func unencodable(err error) error {
	return &apiError{status: http.StatusInternalServerError, code: codeInternal, err: fmt.Errorf("encoding the reply: %w", err)}
}

// writeReport answers code with rep, written as writeJSON would write it but
// straight from the facade's rows, reportChunk bytes at a time: no buffer
// the size of the reply is made. Its values are checked finite before the
// status goes out.
func writeReport(w http.ResponseWriter, code int, rep report) {
	if err := rep.finite(); err != nil {
		writeError(w, unencodable(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	buf.Grow(2 * reportChunk)
	// A failed write means the client is gone; the ResponseWriter drops the
	// rest, as it dropped encoding/json's single write.
	out := rep.appendJSON(buf.AvailableBuffer(), func(b []byte) []byte {
		_, _ = w.Write(b)
		return b[:0]
	})
	_, _ = w.Write(append(out, '\n'))
}

// report is a what-if report on the wire, {"base_total", "new_total",
// "benefit_pct", "queries": [{"id", "base_cost", "new_cost",
// "benefit_pct"}, ...]}, written from the facade's rows by one appender:
// the evaluate route streams it, and an advice reply embeds it through
// MarshalJSON. Its bytes are those encoding/json writes for the same fields.
// A nil report is null.
type report struct{ rep *designer.Report }

// MarshalJSON renders the report for a reply encoding/json writes; a value
// that is not finite is refused, as encoding/json refuses it.
func (r report) MarshalJSON() ([]byte, error) {
	if err := r.finite(); err != nil {
		return nil, err
	}
	return r.appendJSON(nil, nil), nil
}

// finite refuses a report with a value encoding/json would refuse: a NaN or
// an infinity among its totals, its costs or the percentages derived from
// them.
func (r report) finite() error {
	if r.rep == nil {
		return nil
	}
	if !isFinite(r.rep.BaseTotal) || !isFinite(r.rep.NewTotal) || !isFinite(r.rep.AvgBenefitPct()) {
		return fmt.Errorf("report: totals %v and %v: JSON carries no NaN or infinity", r.rep.BaseTotal, r.rep.NewTotal)
	}
	for _, q := range r.rep.Queries {
		if !isFinite(q.BaseCost) || !isFinite(q.NewCost) || !isFinite(q.BenefitPct()) {
			return fmt.Errorf("report: query %q costs %v and %v: JSON carries no NaN or infinity", q.ID, q.BaseCost, q.NewCost)
		}
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSON appends the report's JSON to dst, its values finite. With
// flush non-nil, a dst that reaches reportChunk bytes after a row is handed
// to flush, and appending goes on into what flush returns.
func (r report) appendJSON(dst []byte, flush func([]byte) []byte) []byte {
	if r.rep == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"base_total":`...)
	dst = appendFloat(dst, r.rep.BaseTotal)
	dst = append(dst, `,"new_total":`...)
	dst = appendFloat(dst, r.rep.NewTotal)
	dst = append(dst, `,"benefit_pct":`...)
	dst = appendFloat(dst, r.rep.AvgBenefitPct())
	dst = append(dst, `,"queries":[`...)
	for i, q := range r.rep.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = appendString(dst, q.ID)
		dst = append(dst, `,"base_cost":`...)
		dst = appendFloat(dst, q.BaseCost)
		dst = append(dst, `,"new_cost":`...)
		dst = appendFloat(dst, q.NewCost)
		dst = append(dst, `,"benefit_pct":`...)
		dst = appendFloat(dst, q.BenefitPct())
		dst = append(dst, '}')
		if flush != nil && len(dst) >= reportChunk {
			dst = flush(dst)
		}
	}
	return append(dst, "]}"...)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back to f, in exponent form only below 1e-6
// or from 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 reads e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString appends s as a JSON string escaped as encoding/json escapes
// it by default: quote and backslash, the control characters (\b, \f, \n,
// \r and \t by name), <, > and & for HTML, U+2028 and U+2029 for
// JavaScript, and each byte of invalid UTF-8 as U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

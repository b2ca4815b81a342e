package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/designer"
)

// sqlList is a request's "sql" value as it arrived: the raw JSON, a
// sub-slice of the pooled body readJSON read. It lives until its verb
// returns and the reply is written; then the body's buffer goes back to the
// pool and its bytes are reused by another request. So nothing keeps a
// list: a session keeps what it needs of a request (an advise's options,
// the resolved workload in lastWl and evaluated), and a reply carries none.
// It is decoded into texts only when the workload the session already
// holds does not list them (Server.workload), so a what-if loop that sends
// its session's workload with every evaluate pays no string for it.
type sqlList []byte

// UnmarshalJSON keeps the raw value. Anything but null or an array of
// strings (or nulls, which decode to "") is refused with encoding/json's
// own error for a []string, to which the decoder adds the field's context:
// the reply names the field and type as it did when "sql" was a []string.
func (l *sqlList) UnmarshalJSON(data []byte) error {
	if !walkStrings(data, func([]byte) bool { return true }) {
		var sqls []string
		if err := json.Unmarshal(data, &sqls); err != nil {
			return err
		}
	}
	*l = data
	return nil
}

// empty reports a list with no element: absent, null or [].
func (l sqlList) empty() bool {
	b := bytes.TrimSpace(l)
	return len(b) == 0 || string(b) == "null" || len(bytes.TrimSpace(b[1:len(b)-1])) == 0
}

// matchesHeld reports whether the list names exactly held's statements and
// held is what WorkloadFromSQL builds of them: IDs "q0", "q1", … and
// weights of 1, by bits. Then held answers for the list.
func (l sqlList) matchesHeld(held *designer.Workload) bool {
	n := held.Len()
	var id [24]byte
	for i := 0; i < n; i++ {
		q := held.Query(i)
		if math.Float64bits(q.Weight()) != math.Float64bits(1) ||
			q.ID() != string(strconv.AppendInt(append(id[:0], 'q'), int64(i), 10)) {
			return false
		}
	}
	return sameTexts(l, n, func(i int) string { return held.Query(i).SQL() })
}

// sameTexts reports whether raw is a JSON array of exactly n strings whose
// i-th decodes to text(i), as json.Unmarshal into a []string would decode
// it. It walks raw once, unescaping each element into one reused scratch
// buffer. An element it does not decode exactly as encoding/json does —
// invalid UTF-8, a lone surrogate, both of which the decoder turns into
// U+FFFD — is a miss, never a match.
func sameTexts(raw []byte, n int, text func(i int) string) bool {
	var buf [512]byte
	scratch := buf[:0]
	i := 0
	ok := walkStrings(raw, func(elem []byte) bool {
		if i == n {
			return false
		}
		want := text(i)
		i++
		var ok bool
		scratch, ok = unquote(scratch[:0], elem)
		return ok && string(scratch) == want
	})
	return ok && i == n
}

// walkStrings calls fn with each element of raw, a JSON array: a string's
// bytes between its quotes, escapes intact, or nil for a null. It reports
// whether raw is null or such an array with nothing but white space after
// it. It stops, false, at an element of another kind, a malformed array,
// or when fn returns false. It checks the array's shape, not the strings'
// contents: fn judges those.
func walkStrings(raw []byte, fn func(elem []byte) bool) bool {
	i := skipSpace(raw, 0)
	if bytes.HasPrefix(raw[i:], []byte("null")) {
		return skipSpace(raw, i+4) == len(raw)
	}
	if i == len(raw) || raw[i] != '[' {
		return false
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == ']' {
		return skipSpace(raw, i+1) == len(raw)
	}
	for {
		var elem []byte
		switch {
		case bytes.HasPrefix(raw[i:], []byte("null")):
			i += 4
		case i < len(raw) && raw[i] == '"':
			j := i + 1
			for ; j < len(raw) && raw[j] != '"'; j++ {
				if raw[j] == '\\' {
					j++
				}
			}
			if j >= len(raw) {
				return false
			}
			elem, i = raw[i+1:j], j+1
		default:
			return false
		}
		if !fn(elem) {
			return false
		}
		if i = skipSpace(raw, i); i == len(raw) {
			return false
		}
		switch raw[i] {
		case ',':
			i = skipSpace(raw, i+1)
		case ']':
			return skipSpace(raw, i+1) == len(raw)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// unquote appends the text of a JSON string's contents s to dst. It
// reports false for anything encoding/json refuses or decodes lossily: a
// control character, an unknown escape, a lone surrogate, invalid UTF-8.
func unquote(dst, s []byte) ([]byte, bool) {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			if r+1 == len(s) {
				return dst, false
			}
			switch s[r+1] {
			case '"', '\\', '/':
				dst = append(dst, s[r+1])
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				if rr < 0 {
					return dst, false
				}
				if utf16.IsSurrogate(rr) {
					// Only a high half followed by a low half is a character.
					if r+12 > len(s) || s[r+6] != '\\' || s[r+7] != 'u' {
						return dst, false
					}
					if rr = utf16.DecodeRune(rr, hex4(s[r+8:])); rr == utf8.RuneError {
						return dst, false
					}
					r += 6
				}
				dst = utf8.AppendRune(dst, rr)
				r += 4
			default:
				return dst, false
			}
			r += 2
		case c < 0x20:
			return dst, false
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			if rr == utf8.RuneError && size == 1 {
				return dst, false
			}
			dst = append(dst, s[r:r+size]...)
			r += size
		}
	}
	return dst, true
}

// hex4 reads four hex digits at the start of s as a code unit, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

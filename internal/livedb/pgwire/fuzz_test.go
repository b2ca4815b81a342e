package pgwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
)

// FuzzServerMessages feeds arbitrary bytes to the client as a server's
// stream, two ways, and requires a value or a clean error, never a panic or
// a hang:
//   - message by message through readMessage, every payload handed to each
//     of the RowDescription, DataRow, ErrorResponse and CommandComplete
//     parsers: nothing decoded is longer than the bytes it came from;
//   - as the reply to one simple query, through Query over an in-memory
//     pipe: a result comes back only for a stream whose frames reach a
//     ReadyForQuery, and its rows are no more than the DataRow frames seen.
//
// Corpus: internal/livedb/pgwire/testdata/fuzz.
func FuzzServerMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Conn{r: bufio.NewReader(bytes.NewReader(data))}
		consumed := 0
		for {
			_, payload, err := c.readMessage()
			if err != nil {
				break
			}
			consumed += 5 + len(payload)
			if consumed > len(data) {
				t.Fatalf("read %d bytes of messages from a %d-byte stream", consumed, len(data))
			}
			if cols, err := parseRowDescription(payload); err == nil && 2+19*len(cols) > len(payload) {
				t.Fatalf("%d columns out of a %d-byte RowDescription", len(cols), len(payload))
			}
			if row, err := parseDataRow(payload); err == nil {
				n := 2
				for _, v := range row {
					n += 4 + len(v)
				}
				if n > len(payload) {
					t.Fatalf("a %d-byte DataRow decoded to %d bytes of values", len(payload), n)
				}
			}
			e := parseServerError(payload)
			if len(e.Severity)+len(e.Code)+len(e.Message)+len(e.Detail)+len(e.Hint) > len(payload) {
				t.Fatalf("a %d-byte ErrorResponse decoded to more text than it holds", len(payload))
			}
			for _, s := range parseCStrings(payload) {
				if s == "" || len(s) > len(payload) {
					t.Fatalf("CommandComplete field %q out of a %d-byte payload", s, len(payload))
				}
			}
		}

		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			if _, _, err := readBackendMessage(bufio.NewReader(server)); err != nil {
				return
			}
			server.Write(data) // fails once the client stops reading
		}()
		conn := &Conn{conn: client, r: bufio.NewReader(client), params: map[string]string{}}
		res, err := conn.Query(context.Background(), "SELECT 1")
		client.Close()
		<-done
		if err != nil {
			return
		}
		ready, dataRows := false, 0
		for p := data; len(p) >= 5 && !ready; {
			n := int(binary.BigEndian.Uint32(p[1:5]))
			if n < 4 || n+1 > len(p) {
				break
			}
			switch p[0] {
			case 'Z':
				ready = true
			case 'D':
				dataRows++
			}
			p = p[1+n:]
		}
		if !ready {
			t.Fatalf("Query returned %+v from a stream with no ReadyForQuery", res)
		}
		if len(res.Rows) > dataRows {
			t.Fatalf("Query returned %d rows from %d DataRow messages", len(res.Rows), dataRows)
		}
	})
}

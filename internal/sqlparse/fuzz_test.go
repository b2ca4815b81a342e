package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fragments used to assemble adversarial inputs.
var fuzzTokens = []string{
	"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "GROUP", "BY", "ORDER",
	"LIMIT", "JOIN", "ON", "BETWEEN", "IN", "IS", "NULL", "COUNT", "(*)",
	"(", ")", ",", "*", "=", "<", ">", "<=", ">=", "<>", "+", "-", "/",
	"a", "b", "t1", "t2", "1", "2.5", "'s'", "''", ";", ".", "x.y",
	"--c\n", "1e9", "BETWEEN 1 AND", "IN (", "NOT NOT", "$1", "$", "LIMIT $2",
}

// TestParserNeverPanics: any token soup must produce a value or an error,
// never a panic — parser robustness under malformed input.
func TestParserNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(fuzzTokens[rng.Intn(len(fuzzTokens))])
			sb.WriteByte(' ')
		}
		_, _ = Parse(sb.String())
		_, _ = ParseScript(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLexerNeverPanicsOnRandomBytes pushes raw bytes through the lexer.
func TestLexerNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(64))
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		_, _ = lexAll(string(buf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParsedSelectStringAlwaysReparses: any successfully parsed SELECT must
// re-parse from its own String() rendering (printer/parser agreement).
func TestParsedSelectStringAlwaysReparses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		var sb strings.Builder
		sb.WriteString("SELECT ")
		for i := 0; i < n; i++ {
			sb.WriteString(fuzzTokens[rng.Intn(len(fuzzTokens))])
			sb.WriteByte(' ')
		}
		sel, err := ParseSelect(sb.String())
		if err != nil {
			return true // invalid input; nothing to check
		}
		if _, err := ParseSelect(sel.String()); err != nil {
			t.Logf("rendering %q does not reparse: %v", sel.String(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

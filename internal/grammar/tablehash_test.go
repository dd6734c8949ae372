package grammar_test

import (
	"testing"

	"repro/internal/parser"
)

// The LALR construction may get faster but must not build different
// tables: the digests below were computed at the commit before the
// closure rewrite and the int-coded driver (PR 12, 131bca8), over the
// real composed grammars.
func TestTablesHashPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		o      parser.Options
		states int
		hash   string
	}{
		{"all extensions", parser.AllExtensions(), 297, "c85aa371aeb253572dd301d687936c91201f449fb2735fead718c630d3977f06"},
		{"host only", parser.Options{}, 168, "9a6e074b53e45626e0d6f5b9d49edd8cab6df54c8499a64c4adaeaf79cd3c9df"},
	} {
		tab, err := parser.BuildTable(c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tab.NumStates() != c.states {
			t.Errorf("%s: %d LR states, want %d", c.name, tab.NumStates(), c.states)
		}
		if got := tab.TablesHash(); got != c.hash {
			t.Errorf("%s: action/goto/valid tables hash to %s, want %s", c.name, got, c.hash)
		}
	}
}

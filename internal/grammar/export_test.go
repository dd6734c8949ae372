package grammar

import (
	"crypto/sha256"
	"fmt"
)

// TablesHash digests the terminal and nonterminal numbering and every
// state's action row, goto row and valid-terminal set, in a rendering
// that does not depend on how the table stores them.
func (t *Table) TablesHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "terms %q\nnts %q\n", t.c.termNames, t.c.ntNames)
	for si := range t.states {
		var valid []int
		for id := range t.c.termNames {
			if t.valid[si].Has(int32(id)) {
				valid = append(valid, id)
			}
		}
		fmt.Fprintf(h, "state %d\naction %v\ngoto %v\nvalid %v\n", si, t.action[si], t.gotoTab[si], valid)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

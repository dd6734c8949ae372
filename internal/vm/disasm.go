// Opcode names and a listing of a proto's code, for tests and for a
// failing test's message (an instruction used to print as op=32 a=7).
package vm

import (
	"fmt"
	"strings"
)

// opNames is indexed by opcode, in declaration order.
var opNames = strings.Fields(`
	Nop Step Flush Jmp BrFalse BrTrue Ret Fail
	BrLtI BrLeI BrGtI BrGeI BrEqI BrNeI BrLtIK BrLeIK BrGtIK BrGeIK BrEqIK BrNeIK
	IncJLtI IncJLeI IncJLtIK IncJLeIK
	ConstI LoadK Move GLoad GStore GBindR
	AddI SubI MulI DivI ModI NegI AddIK MulIK DivIK ModIK
	AddF SubF MulF DivF NegF
	LtI LeI GtI GeI EqI NeI LtF LeF GtF GeF EqF NeF EqB NeB NotB
	I2F F2I B2I I2B F2B B2F ToInt
	UnboxI UnboxF UnboxB ToBool BindR
	IdxCheck Idx1F Idx1I Idx1B SetIdx1F SetIdx1I SetIdx1B
	CastD Coerce Promote SCBool BinM UnM
	DimEnd Index SetIndex
	Range CheckDim Init Tuple TupCheck TupGet RetTup
	Call Print DimSize ReadM WriteM RcNew RcGet RcSet RcRel
	With MatMap Spawn Sync Fused WithGen WithFold`)

func (op opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func (in instr) String() string {
	return fmt.Sprintf("%s %d %d %d", in.op, in.a, in.b, in.c)
}

// disasm lists p's code, one instruction a line: its index, its name
// and its three operands as they are stored (a register, an immediate
// or a jump target, by opcode; see the table in program.go).
func (p *proto) disasm() string {
	var b strings.Builder
	for pc, in := range p.code {
		fmt.Fprintf(&b, "%d: %s\n", pc, in)
	}
	return b.String()
}

package cpu

import "camouflage/internal/insn"

// The cycle model approximates the in-order Cortex-A53 of the paper's
// Raspberry Pi 3 testbed at 1.2 GHz. Two costs are load-bearing for the
// evaluation and are asserted by calibration tests:
//
//   - every PAuth instruction costs PAuthCycles = 4, the PA-analogue
//     estimate the paper substitutes for real PAuth hardware (§6.1);
//   - switching one 128-bit PAuth key costs 9 cycles on average (§6.1.1):
//     installing a kernel key through the XOM setter costs 12 (a MOVZ+3×
//     MOVK chain per 64-bit half plus two MSRs), restoring a user key from
//     thread_struct costs 6 (LDP plus two MSRs), and every syscall does
//     both, so the per-key switching cost is (12+6)/2 = 9.
const (
	// ClockHz is the simulated core clock (Raspberry Pi 3, Cortex-A53).
	ClockHz = 1_200_000_000

	// PAuthCycles is the PA-analogue cost of every PAC*/AUT*/XPAC/PACGA
	// instruction (§6.1: "4-cycles per instruction").
	PAuthCycles = 4

	costALU       = 1
	costMul       = 3
	costDiv       = 8
	costLoad      = 2
	costStore     = 1
	costLoadPair  = 2
	costStorePair = 2
	costBranch    = 1
	costMRS       = 2
	costMSR       = 2
	costISB       = 8
	costSVC       = 1 // plus exception entry
	// costExcEntry and costERET model the pipeline flush and state
	// save/restore of an exception round trip.
	costExcEntry = 40
	costERET     = 30
)

// CyclesToNanos converts simulated cycles to nanoseconds at ClockHz.
func CyclesToNanos(cycles uint64) float64 {
	return float64(cycles) * 1e9 / float64(ClockHz)
}

// costTab is cost() precomputed over the whole uint8 op space so the
// execute loop pays one array load instead of a switch dispatch.
var costTab [256]uint64

func init() {
	for op := 0; op < len(costTab); op++ {
		costTab[op] = cost(insn.Op(op))
	}
}

// cost returns the base cycle cost of an instruction. PAuth branch forms
// pay both the authentication and the branch.
func cost(op insn.Op) uint64 {
	switch op {
	case insn.OpMOVZ, insn.OpMOVK, insn.OpMOVN, insn.OpADR, insn.OpADRP,
		insn.OpADDi, insn.OpSUBi, insn.OpBFM, insn.OpUBFM, insn.OpSBFM,
		insn.OpADDr, insn.OpSUBr, insn.OpSUBSr, insn.OpANDr, insn.OpORRr,
		insn.OpEORr, insn.OpANDSr, insn.OpLSLV, insn.OpLSRV, insn.OpCSEL,
		insn.OpNOP:
		return costALU
	case insn.OpMADD:
		return costMul
	case insn.OpUDIV:
		return costDiv
	case insn.OpLDR, insn.OpLDRW, insn.OpLDRB, insn.OpLDRpost:
		return costLoad
	case insn.OpSTR, insn.OpSTRW, insn.OpSTRB, insn.OpSTRpre:
		return costStore
	case insn.OpLDP, insn.OpLDPpost:
		return costLoadPair
	case insn.OpSTP, insn.OpSTPpre:
		return costStorePair
	case insn.OpB, insn.OpBL, insn.OpBcond, insn.OpCBZ, insn.OpCBNZ,
		insn.OpBR, insn.OpBLR, insn.OpRET:
		return costBranch
	case insn.OpPACIA, insn.OpPACIB, insn.OpPACDA, insn.OpPACDB,
		insn.OpAUTIA, insn.OpAUTIB, insn.OpAUTDA, insn.OpAUTDB,
		insn.OpPACIZA, insn.OpPACIZB, insn.OpPACDZA, insn.OpPACDZB,
		insn.OpAUTIZA, insn.OpAUTIZB, insn.OpAUTDZA, insn.OpAUTDZB,
		insn.OpXPACI, insn.OpXPACD, insn.OpPACGA,
		insn.OpPACIA1716, insn.OpPACIB1716, insn.OpAUTIA1716, insn.OpAUTIB1716:
		return PAuthCycles
	case insn.OpBLRAA, insn.OpBLRAB, insn.OpBRAA, insn.OpBRAB,
		insn.OpRETAA, insn.OpRETAB:
		return PAuthCycles + costBranch
	case insn.OpMRS:
		return costMRS
	case insn.OpMSR:
		return costMSR
	case insn.OpISB:
		return costISB
	case insn.OpSVC:
		return costSVC
	case insn.OpERET:
		return costERET
	case insn.OpHLT:
		return 1
	}
	return costALU
}

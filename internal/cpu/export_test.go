package cpu

// FusedRunLens returns the length of every fused op in c's live traces,
// by kind: STP runs, LDP runs and move-wide chains.
func (c *CPU) FusedRunLens() (stp, ldp, mov []int) {
	for _, b := range c.blocks {
		if b.tr == nil {
			continue
		}
		for _, in := range b.tr.instrs {
			switch in.Op {
			case opSTPRun:
				stp = append(stp, int(in.ImmS))
			case opLDPRun:
				ldp = append(ldp, int(in.ImmS))
			case opMOVImm:
				mov = append(mov, int(in.ImmS))
			}
		}
	}
	return stp, ldp, mov
}

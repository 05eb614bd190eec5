// ROP defense: the paper's backward-edge scenario end to end. An attacker
// with arbitrary kernel memory write smashes the saved return addresses on
// a victim task's kernel stack. On the unprotected kernel the attacker's
// gadget runs; under Camouflage's hardened return-address scheme
// (Listing 3) the corrupted pointer fails authentication and the kernel
// kills the offender instead.
//
//	go run ./examples/ropdefense
package main

import (
	"fmt"
	"log"

	"camouflage/internal/attack"
	"camouflage/internal/core"
)

func main() {
	fmt.Println("ROP frame-record attack (§2.1) vs kernel builds:")
	for _, lv := range []struct {
		name  string
		level core.ProtectionLevel
	}{
		{"none (baseline)", core.LevelNone},
		{"backward-edge (Camouflage)", core.LevelBackwardEdge},
		{"full", core.LevelFull},
	} {
		r, err := attack.ROPFrameRecord(attack.LevelOf(lv.level))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s -> %-12s %s\n", lv.name, r.Outcome, r.Detail)
	}
	fmt.Println("\nThe unprotected kernel executes the gadget; the protected builds")
	fmt.Println("poison the forged pointer on AUTIB and fault before the RET lands.")
}

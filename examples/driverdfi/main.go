// Driver DFI: demonstrates §4.5 — why Camouflage must protect *data*
// pointers to operations tables, not just function pointers. An attacker
// with kernel write swaps an open file's f_ops to a forged table. Without
// DFI the forged read() runs in kernel context; with DFI the transplanted
// pointer fails authentication.
//
//	go run ./examples/driverdfi
package main

import (
	"fmt"
	"log"

	"camouflage/internal/attack"
	"camouflage/internal/core"
)

func main() {
	fmt.Println("f_ops swap (forged operations table) vs kernel builds:")
	for _, lv := range []struct {
		name  string
		level core.ProtectionLevel
	}{
		{"backward-edge only", core.LevelBackwardEdge},
		{"full (with DFI)", core.LevelFull},
	} {
		r, err := attack.FOpsSwap(attack.LevelOf(lv.level))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s -> %-12s %s\n", lv.name, r.Outcome, r.Detail)
	}

	fmt.Println("\nf_ops replay (signed pointer transplanted between objects):")
	full, err := attack.FOpsReplay(attack.LevelOf(core.LevelFull))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-20s -> %-12s %s\n", "full (§4.3 modifier)", full.Outcome, full.Detail)
	zc, err := attack.LevelByName("full/zero-mod")
	if err != nil {
		log.Fatal(err)
	}
	zero, err := attack.FOpsReplay(zc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-20s -> %-12s %s\n", "zero modifier (§7)", zero.Outcome, zero.Detail)
	fmt.Println("\nBinding the PAC to the containing object's address (48 bits) and a")
	fmt.Println("16-bit type constant stops the transplant that Apple's zero-modifier")
	fmt.Println("vtable scheme accepts.")
}

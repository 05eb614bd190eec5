// Command kscan demonstrates the §4.1/§5.3 static analyses:
//
//	kscan           — scan demonstration module images (one benign, one
//	                  key-stealing, one SCTLR-tampering) and print verdicts;
//	kscan -stats    — run the Coccinelle-analogue semantic search and print
//	                  the §5.3 statistics and a sample of the planned
//	                  get/set rewrites;
//	kscan -verdicts — machine-comparable verdict list over the built
//	                  kernel image and every demo module, one line each,
//	                  diffed against cmd/kscan/verdicts.golden by the
//	                  kscan-smoke CI job (and TestVerdictsGolden) so any
//	                  drift in what the §4.1 verifier accepts or rejects
//	                  fails the commit that caused it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"camouflage/internal/analysis"
	"camouflage/internal/asm"
	"camouflage/internal/codegen"
	"camouflage/internal/figures"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
)

// demoModules are the three demonstration module images: one benign
// driver and two §4.1 violations.
func demoModules() []struct {
	name  string
	build func(a *asm.Assembler)
} {
	return []struct {
		name  string
		build func(a *asm.Assembler)
	}{
		{"benign-driver", func(a *asm.Assembler) {
			a.I(insn.PACIA(insn.LR, insn.SP))
			a.I(insn.LDR(insn.X0, insn.X1, 8))
			a.I(insn.AUTIA(insn.LR, insn.SP))
			a.I(insn.RET())
		}},
		{"key-stealer", func(a *asm.Assembler) {
			a.I(insn.MRS(insn.X0, insn.APIBKeyLo_EL1))
			a.I(insn.MRS(insn.X1, insn.APIBKeyHi_EL1))
			a.I(insn.RET())
		}},
		{"sctlr-tamper", func(a *asm.Assembler) {
			a.I(insn.MOVZ(insn.X0, 0, 0))
			a.I(insn.MSR(insn.SCTLR_EL1, insn.X0))
			a.I(insn.RET())
		}},
	}
}

// buildModuleText assembles one demo module and returns its .text bytes.
func buildModuleText(build func(a *asm.Assembler)) ([]byte, error) {
	a := asm.New()
	build(a)
	img, err := a.Link(map[string]uint64{".text": 0x1000})
	if err != nil {
		return nil, err
	}
	return img.Sections[".text"].Bytes, nil
}

// writeVerdicts emits the deterministic verdict list: the §4.1 verifier
// over the full built kernel image, then over each demo module.
func writeVerdicts(w io.Writer) error {
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigFull(), Seed: 1})
	if err != nil {
		return err
	}
	if err := kernel.VerifyImage(k.Img); err != nil {
		fmt.Fprintf(w, "kernel-image: REJECTED: %v\n", err)
	} else {
		fmt.Fprintln(w, "kernel-image: OK")
	}
	for _, mod := range demoModules() {
		text, err := buildModuleText(mod.build)
		if err != nil {
			return err
		}
		if err := analysis.VerifyModuleText(text); err != nil {
			fmt.Fprintf(w, "module %s: REJECTED: %v\n", mod.name, err)
		} else {
			fmt.Fprintf(w, "module %s: OK\n", mod.name)
		}
	}
	return nil
}

func main() {
	stats := flag.Bool("stats", false, "print §5.3 semantic-search statistics")
	verdicts := flag.Bool("verdicts", false, "print the golden verdict list (kernel image + demo modules)")
	flag.Parse()

	if *verdicts {
		if err := writeVerdicts(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *stats {
		if err := figures.RenderCoccinelle(context.Background(), os.Stdout, figures.RunOptions{}); err != nil {
			log.Fatal(err)
		}
		c := analysis.GenerateLinux52Corpus(1)
		rw := analysis.PlanRewrites(c)
		fmt.Println("\nsample rewrites:")
		for _, r := range rw[:5] {
			conv := ""
			if r.ConvertToOpsTable {
				conv = "  [recommend read-only ops table]"
			}
			fmt.Printf("  %s.%s -> %s()/%s(), tc=%#04x%s\n",
				r.Type, r.Member, r.Getter, r.Setter, r.TypeConst, conv)
		}
		return
	}

	scan := func(name string, build func(a *asm.Assembler)) {
		text, err := buildModuleText(build)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("module %q (%d bytes):\n", name, len(text))
		if err := analysis.VerifyModuleText(text); err != nil {
			fmt.Printf("  REJECTED: %v\n", err)
			return
		}
		fmt.Println("  ok: no key reads, no SCTLR writes")
	}

	for _, mod := range demoModules() {
		scan(mod.name, mod.build)
	}
}

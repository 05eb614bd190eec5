// Command attacksim runs the differential attack campaign: for each
// (attack, protection level) cell one machine is booted and run to the
// attack window, then N copy-on-write forks are struck with mutated
// corruptions (guessed PAC bits, varied smash sets, transplant
// variants), yielding a per-level defeat/bypass matrix. The §6.2 attack
// matrix itself is `experiments attacks`.
//
// Usage:
//
//	attacksim                      — differential campaign, all levels
//	attacksim -mutations 64 -levels none,full
//	attacksim -cpus 2              — add the cross-core replay cell
//
// A cell's strikes fan out over the process's Ps; GOMAXPROCS=1 strikes
// them in order. The output is the same either way.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"camouflage/internal/attack"
	"camouflage/internal/fault"
)

func main() {
	mutations := flag.Int("mutations", 32, "mutated attempts per (attack, level) cell")
	seed := flag.Uint64("seed", 1, "campaign mutation seed")
	levels := flag.String("levels", "", "comma-separated level filter (e.g. none,full); empty = all")
	cpus := flag.Int("cpus", 1,
		"vCPUs per campaign machine (1 = pre-SMP-identical; 2+ adds the cross-core replay cell)")
	faults := flag.String("faults", "",
		"deterministic fault injection spec for chaos testing, e.g. "+
			"'seed=42,pool.boot=1,pool.acquire=1:10ms' (empty disables)")
	flag.Parse()

	if *faults != "" {
		r, err := fault.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("attacksim: -faults: %v", err)
		}
		fault.Install(r)
		fmt.Fprintf(os.Stderr, "attacksim: FAULT INJECTION ARMED: %s\n", r)
	}

	var lv []string
	if *levels != "" {
		lv = strings.Split(*levels, ",")
	}
	rep, err := attack.RunCampaign(attack.CampaignOptions{
		Mutations: *mutations,
		Seed:      *seed,
		Levels:    lv,
		CPUs:      *cpus,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep.Render(os.Stdout)
}

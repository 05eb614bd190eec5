package attack

// The differential attack campaign: the snapshot subsystem's flagship
// scenario class. For each (protection level, attack) pair the driver
// boots one machine, runs the victim up to the attack window, captures
// the armed machine mid-execution, then forks N copy-on-write machines
// and strikes each with a differently mutated corruption (guessed PAC
// bits, different smash sets, transplant variants). Every mutation sees
// the *identical* machine state — the comparison the paper's §6.2
// security argument is implicitly about, and one that full reboots make
// prohibitively slow (each attempt would re-pay codegen + verification +
// boot + victim warm-up).
//
// The cells are the scenarios of attack.go, the same table the §6.2
// matrix strikes once unmutated: each fork is struck with a per-mutation
// PRNG where the matrix passes nil, then run and judged by scenario.run,
// and the campaign keeps the outcome and discards the detail. Because it
// discards the detail, a campaign strike may stop once its verdict is
// sealed (a ROP or f_ops-swap gadget that has run) instead of spinning
// the gadget to the end of its budget.
//
// A strike writes only guest RAM, and every fork of a cell starts as an
// exact copy of one armed snapshot, so once struck a fork differs from
// its siblings only in its copy-on-write overlay. Strikes of one cell
// that leave the same overlay (the same pages holding the same bytes)
// are the same machine and must reach the same verdict; the cell runs
// the first of them and the rest take its result (strikeCell).

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"sync"

	"camouflage/internal/boot"
	"camouflage/internal/kernel"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

// CampaignOptions tunes a differential campaign run.
type CampaignOptions struct {
	// Mutations is the number of forked attack attempts per (attack,
	// level) cell (default 32).
	Mutations int
	// Seed drives the mutation PRNGs (default 1).
	Seed uint64
	// Levels filters the §6.2 configurations by name (nil = all).
	Levels []string
	// CPUs is the vCPU count of every cell machine (0/1: uniprocessor,
	// byte-identical to pre-SMP campaigns). At 2 or more, the cell list
	// additionally includes the cross-core f_ops replay scenario: a
	// donor victim on core 0, a recipient victim on core 1, and a
	// mutated signed-pointer transplant between them.
	CPUs int
}

// CampaignCell aggregates one (attack, level) cell of the matrix.
type CampaignCell struct {
	Attack       string `json:"attack"`
	Level        string `json:"level"`
	Runs         int    `json:"runs"`
	Hijacked     int    `json:"hijacked"`
	Detected     int    `json:"detected"`
	Inconclusive int    `json:"inconclusive"`
	// ArmCycles is the victim warm-up cost every fork inherited for free.
	ArmCycles uint64 `json:"arm_cycles"`
	// DirtyPages is the mean copy-on-write overlay a strike produced.
	DirtyPages int `json:"dirty_pages"`
}

// Defeated reports whether the level stopped every mutation.
func (c CampaignCell) Defeated() bool { return c.Hijacked == 0 }

// CampaignReport is the full defeat/bypass matrix.
type CampaignReport struct {
	Cells     []CampaignCell `json:"cells"`
	Mutations int            `json:"mutations"`
	// Forks counts machines forked across the campaign; Armed the
	// mid-execution snapshots captured (one per cell). Cell machines are
	// themselves warm-pool forks keyed by (configuration, scenario
	// seed), so repeated campaigns in one process re-pay no boots.
	Forks uint64 `json:"forks"`
	Armed int    `json:"armed"`
}

// campaignScenarios returns the campaign's cells: the uniprocessor
// attacks, plus the cross-core replay at 2+ vCPUs.
func campaignScenarios(cpus int) []scenario {
	scs := baseScenarios()
	if cpus >= 2 {
		scs = append(scs, crossCoreScenario)
	}
	return scs
}

// RunCampaign executes the differential campaign and returns the
// defeat/bypass matrix.
func RunCampaign(o CampaignOptions) (*CampaignReport, error) {
	return RunCampaignContext(context.Background(), o)
}

// RunCampaignContext is RunCampaign with cancellation: once ctx is done
// no new cell is armed and no new strike is forked (strikes already
// running finish: each runs until its verdict is sealed or its
// instruction budget ends, or waits for the sibling whose run answers
// it), and ctx.Err() is returned.
// It is the service daemon's campaign entry point — request deadlines
// flow through here into every forked mutation.
func RunCampaignContext(ctx context.Context, o CampaignOptions) (*CampaignReport, error) {
	if o.Mutations <= 0 {
		o.Mutations = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	levels := Levels()
	if len(o.Levels) > 0 {
		want := map[string]bool{}
		for _, n := range o.Levels {
			if _, err := LevelByName(n); err != nil {
				return nil, err
			}
			want[n] = true
		}
		levels = slices.DeleteFunc(levels, func(lv Level) bool { return !want[lv.Name] })
	}
	scenarios := campaignScenarios(o.CPUs)

	rep := &CampaignReport{Mutations: o.Mutations}
	for _, lv := range levels {
		for _, sc := range scenarios {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			k, err := bootWith(lv, o.CPUs, sc.seed)
			if err != nil {
				return nil, err
			}
			rep.Armed++
			armStart := k.CPU.Cycles
			w, err := sc.arm(k)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sc.name, lv.Name, err)
			}
			cell := CampaignCell{
				Attack: sc.name, Level: lv.Name,
				Runs: o.Mutations, ArmCycles: k.CPU.Cycles - armStart,
			}
			snap := snapshot.Take(k)

			strikes, err := sc.strikeCell(ctx, snap, w, o.Seed, o.Mutations)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sc.name, lv.Name, err)
			}
			totalDirty := 0
			for _, r := range strikes {
				switch r.out {
				case OutcomeHijacked:
					cell.Hijacked++
				case OutcomeDetected:
					cell.Detected++
				default:
					cell.Inconclusive++
				}
				totalDirty += r.dirty
			}
			cell.DirtyPages = totalDirty / o.Mutations
			rep.Forks += uint64(o.Mutations) // strikeCell forks every strike
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// strikeResult is what a campaign strike leaves: the outcome and the
// copy-on-write overlay size the cell aggregates, plus the PAC failures
// and instructions retired that TestSealedStrikesMatchFullBudgets holds
// to the same strike run for its whole budget.
type strikeResult struct {
	out         Outcome
	dirty       int
	pacFailures int
	retired     uint64
}

// strikeCell forks n machines from the armed snapshot of sc's cell,
// strikes fork m with strikeRNG(seed, sc, m) and returns the strikes'
// results in mutation order. A fork whose overlay digest an earlier
// strike of this call already left is the same machine: it takes that
// strike's result instead of running. Each distinct overlay runs exactly
// once, also when the strikes fan out (a sibling that struck the same
// overlay waits for the run), and every fork is still made, so the
// report's Forks counts every strike.
func (sc scenario) strikeCell(ctx context.Context, snap *snapshot.Snapshot, w window, seed uint64, n int) ([]strikeResult, error) {
	type memoRun struct {
		once sync.Once
		res  strikeResult
	}
	var mu sync.Mutex
	memo := make(map[[sha256.Size]byte]*memoRun)
	res := make([]strikeResult, n)
	err := snapshot.ForEach(ctx, n, func(m int) error {
		fork, err := snap.Fork()
		if err != nil {
			return err
		}
		ram := fork.CPU.Bus.RAM
		before := gadgetCounter(fork)
		sc.strike(ram, w, strikeRNG(seed, sc, m))
		digest := ram.OverlayDigest()
		mu.Lock()
		e := memo[digest]
		if e == nil {
			e = new(memoRun)
			memo[digest] = e
		}
		mu.Unlock()
		path := obs.CCampaignStrikeMemo
		e.once.Do(func() {
			path = obs.CCampaignStrikeRun
			start := retired(fork)
			out, _ := sc.run(fork, w, before, true)
			e.res = strikeResult{out: out, dirty: ram.DirtyPages(),
				pacFailures: fork.PACFailures, retired: retired(fork) - start}
		})
		obs.Add(path, 1)
		res[m] = e.res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// retired sums the instructions every CPU of k has retired.
func retired(k *kernel.Kernel) uint64 {
	var n uint64
	for _, c := range k.CPUs {
		n += c.Retired
	}
	return n
}

// strikeRNG is the mutation PRNG of strike m of a scenario's cell under
// campaign seed seed.
func strikeRNG(seed uint64, sc scenario, m int) *boot.PRNG {
	return boot.NewPRNG(seed ^ sc.seed<<32 ^ uint64(m)*0x9E3779B97F4A7C15)
}

// Render writes the campaign matrix as text.
func (rep *CampaignReport) Render(w io.Writer) {
	fmt.Fprintf(w, "DIFFERENTIAL ATTACK CAMPAIGN: %d mutated attempts per cell (forked from one armed snapshot each)\n",
		rep.Mutations)
	fmt.Fprintf(w, "  %-26s %-15s %-9s %-9s %-13s %-9s %s\n",
		"attack", "build", "hijacked", "detected", "inconclusive", "verdict", "avg dirty pages/strike")
	for _, c := range rep.Cells {
		verdict := "DEFEATED"
		if !c.Defeated() {
			verdict = "bypassed"
		}
		fmt.Fprintf(w, "  %-26s %-15s %-9d %-9d %-13d %-9s %d\n",
			c.Attack, c.Level, c.Hijacked, c.Detected, c.Inconclusive, verdict, c.DirtyPages)
	}
	fmt.Fprintf(w, "  machines: %d strike forks from %d armed snapshots\n", rep.Forks, rep.Armed)
}

package attack

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"camouflage/internal/kernel"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
	"camouflage/internal/snapshot"
)

// TestSMPCampaignDeterminism pins the acceptance criterion that a
// 2-vCPU campaign is byte-identical across repeated runs and to
// testdata/smp-campaign.golden, and that the cross-core replay cell
// joins the matrix at 2 vCPUs with the expected verdict under full
// protection. The golden catches a campaign that stops building its
// cells at the requested vCPU count, which repeated runs alone would
// not.
func TestSMPCampaignDeterminism(t *testing.T) {
	run := func() (*CampaignReport, string) {
		rep, err := RunCampaign(CampaignOptions{
			Mutations: 3, Seed: 5, Levels: []string{"full"}, CPUs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return rep, buf.String()
	}
	rep1, out1 := run()
	_, out2 := run()
	if out1 != out2 {
		t.Fatalf("2-vCPU campaign not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "smp-campaign.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out1 != string(want) {
		t.Fatalf("2-vCPU campaign drifted from testdata/smp-campaign.golden:\n--- got ---\n%s--- want ---\n%s", out1, want)
	}
	var crossCore *CampaignCell
	for i := range rep1.Cells {
		if rep1.Cells[i].Attack == "cross-core f_ops replay" {
			crossCore = &rep1.Cells[i]
		}
	}
	if crossCore == nil {
		t.Fatal("2-vCPU campaign missing the cross-core replay cell")
	}
	if !crossCore.Defeated() {
		t.Fatalf("full protection bypassed by cross-core replay: %+v", *crossCore)
	}
	if crossCore.Detected == 0 {
		t.Fatalf("cross-core replay produced no detections under full protection: %+v", *crossCore)
	}
}

// TestSMPCampaignUniprocessorUnchanged: a CPUs: 1 campaign must not
// grow the cross-core cell (its scenario list is the pre-SMP one).
func TestSMPCampaignUniprocessorUnchanged(t *testing.T) {
	rep, err := RunCampaign(CampaignOptions{
		Mutations: 2, Seed: 5, Levels: []string{"none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Attack == "cross-core f_ops replay" {
			t.Fatal("uniprocessor campaign includes the cross-core cell")
		}
	}
}

// TestCampaignPACMemoHitRate reads the PAC sign and QARMA-run counters
// over one backward-edge campaign level, where every syscall signs and
// authenticates the same few return addresses: the signers' memos must
// serve all but 1% of those MACs, so a degenerate memo index (or a memo
// flushed on every key switch) fails here.
func TestCampaignPACMemoHitRate(t *testing.T) {
	before := obs.CounterTotals()
	if _, err := RunCampaign(CampaignOptions{Mutations: 4, Levels: []string{"backward-edge"}}); err != nil {
		t.Fatal(err)
	}
	after := obs.CounterTotals()
	delta := func(id obs.CounterID) uint64 { return after[id] - before[id] }
	var signs, auths uint64
	for k := obs.CounterID(0); k < pac.NumKeys; k++ {
		signs += delta(obs.CPACSignIA + k)
		auths += delta(obs.CPACAuthIA + k)
	}
	runs := delta(obs.CPACQARMARun)
	if signs == 0 || auths == 0 {
		t.Fatalf("signs = %d, auths = %d; the backward-edge level did no PAC work", signs, auths)
	}
	if runs*100 > signs+auths {
		t.Fatalf("%d QARMA runs for %d signs + %d auths (%.2f%%), want at most 1%%",
			runs, signs, auths, 100*float64(runs)/float64(signs+auths))
	}
	t.Logf("%d QARMA runs for %d signs + %d auths", runs, signs, auths)
}

// TestSealedStrikesMatchFullBudgets holds the campaign's cell loop, with
// its strike memo and its early stop, to full budgets. Every campaign
// cell, at mutation seeds 1, 2, 3 and 7 and at 1 and 2 vCPUs, is struck
// through strikeCell, which runs each distinct overlay once and stops a
// run once its verdict is sealed. Then each of those strikes runs again,
// on its own fork of the same armed snapshot, for the scenario's whole
// budget. Outcome, PAC failures and dirty pages (the campaign's average)
// must agree strike by strike; a difference means a sealed rule is too
// eager or the memo merged strikes that differ. The cell loop's strikes
// must also retire fewer instructions in all (a memoized strike counts
// the run that answered it), so a seal that never fires fails too. The
// strike counter must count every strike once, by path, with memo hits
// among them, so a memo that never hits fails.
//
// The campaign's own strikes all settle inside the first SMPQuantum
// slice or scheduler rotation, so the test adds cells whose verdicts
// settle later, where a rule that seals before the judge is final
// changes them: ROP armed within 500 instructions of the child
// blocking, while the parent still has most of its yields to run before
// it wakes the child; and at 2 vCPUs the cross-core replay with a
// recipient that counts down 5000 iterations between reads.
func TestSealedStrikesMatchFullBudgets(t *testing.T) {
	const mutations = 4
	seeds := []uint64{1, 2, 3, 7}
	lateROP := ropScenario
	lateROP.name += ", armed as the child blocks"
	lateROP.arm = armBlocked(500)
	lateCrossCore := crossCoreScenario
	lateCrossCore.name += ", recipient pausing"
	lateCrossCore.arm = func(k *kernel.Kernel) (window, error) {
		return armCrossCore(k, 5000)
	}
	ctx := context.Background()
	for _, cpus := range []int{1, 2} {
		var campaignRetired, fullRetired uint64
		strikes := 0
		c0 := obs.CounterTotals()
		for _, lv := range Levels() {
			cells := append(campaignScenarios(cpus), lateROP)
			if cpus >= 2 {
				cells = append(cells, lateCrossCore)
			}
			for _, sc := range cells {
				k, err := bootWith(lv, cpus, sc.seed)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sc.arm(k)
				if err != nil {
					t.Fatalf("%s/%s: %v", sc.name, lv.Name, err)
				}
				snap := snapshot.Take(k)
				var campaign []strikeResult
				for _, seed := range seeds {
					res, err := sc.strikeCell(ctx, snap, w, seed, mutations)
					if err != nil {
						t.Fatalf("%s/%s: %v", sc.name, lv.Name, err)
					}
					campaign = append(campaign, res...)
				}
				full := make([]strikeResult, len(campaign))
				err = snapshot.ForEach(ctx, len(full), func(i int) error {
					fork, err := snap.Fork()
					if err != nil {
						return err
					}
					before := gadgetCounter(fork)
					sc.strike(fork.CPU.Bus.RAM, w, strikeRNG(seeds[i/mutations], sc, i%mutations))
					start := retired(fork)
					out, _ := sc.run(fork, w, before, false)
					full[i] = strikeResult{out: out, dirty: fork.CPU.Bus.RAM.DirtyPages(),
						pacFailures: fork.PACFailures, retired: retired(fork) - start}
					return nil
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", sc.name, lv.Name, err)
				}
				for i, c := range campaign {
					f := full[i]
					if c.out != f.out || c.pacFailures != f.pacFailures || c.dirty != f.dirty {
						t.Errorf("%d vCPU %s/%s seed %d mutation %d: campaign strike %s (%d PAC failures, %d dirty pages), full budget %s (%d, %d)",
							cpus, sc.name, lv.Name, seeds[i/mutations], i%mutations,
							c.out, c.pacFailures, c.dirty, f.out, f.pacFailures, f.dirty)
					}
					campaignRetired += c.retired
					fullRetired += f.retired
				}
				strikes += len(campaign)
			}
		}
		c1 := obs.CounterTotals()
		run := c1[obs.CCampaignStrikeRun] - c0[obs.CCampaignStrikeRun]
		memo := c1[obs.CCampaignStrikeMemo] - c0[obs.CCampaignStrikeMemo]
		if run+memo != uint64(strikes) || memo == 0 {
			t.Errorf("%d vCPU: strike counter reads run %d + memo %d for %d strikes, want every strike once and memo hits",
				cpus, run, memo, strikes)
		}
		if campaignRetired >= fullRetired {
			t.Errorf("%d vCPU: campaign strikes retired %d instructions, full budgets %d: no strike was sealed",
				cpus, campaignRetired, fullRetired)
		}
		t.Logf("%d vCPU: %d strikes (%d run, %d memo), instructions retired by campaign strikes %d, full budgets %d",
			cpus, strikes, run, memo, campaignRetired, fullRetired)
	}
}

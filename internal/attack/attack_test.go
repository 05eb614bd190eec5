package attack

import (
	"context"
	"strings"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/pac"
	"camouflage/internal/snapshot"
)

// TestCampaignMatrix: the differential campaign reproduces the §6.2
// verdicts per protection level — full protection defeats every mutated
// attack, the unprotected kernel is bypassed by canonical forgeries, and
// the zero-modifier ablation is bypassed by replay.
func TestCampaignMatrix(t *testing.T) {
	rep, err := RunCampaign(CampaignOptions{
		Mutations: 12,
		Seed:      7,
		Parallel:  true,
		Levels:    []string{"none", "full", "full/zero-mod"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]CampaignCell{}
	bypassedAtNone := 0
	for _, c := range rep.Cells {
		cells[c.Attack+"/"+c.Level] = c
		if c.Runs != 12 {
			t.Errorf("%s/%s: %d runs, want 12", c.Attack, c.Level, c.Runs)
		}
		if c.Level == "none" && !c.Defeated() {
			bypassedAtNone++
		}
		if c.Level == "full" && !c.Defeated() {
			t.Errorf("%s bypassed full protection: %+v", c.Attack, c)
		}
	}
	if bypassedAtNone == 0 {
		t.Error("no attack bypassed the unprotected kernel")
	}
	replayZero, ok := cells["f_ops replay (reuse)/full/zero-mod"]
	if !ok || replayZero.Defeated() {
		t.Errorf("replay should bypass the zero-modifier ablation: %+v", replayZero)
	}
	if rep.Forks < uint64(len(rep.Cells)*12) {
		t.Errorf("forks = %d, want >= %d", rep.Forks, len(rep.Cells)*12)
	}

	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "DEFEATED") || !strings.Contains(sb.String(), "bypassed") {
		t.Errorf("render missing verdicts:\n%s", sb.String())
	}
}

// TestCampaignDeterministic: same options, same matrix — strikes are
// seeded per mutation and forks are exact, so parallel scheduling cannot
// leak into the results. The none and backward-edge levels have
// hijacked ROP and f_ops-swap strikes, which stop once sealed, so the
// race job also covers sealed strikes run in parallel.
func TestCampaignDeterministic(t *testing.T) {
	opts := CampaignOptions{Mutations: 6, Seed: 9, Levels: []string{"none", "backward-edge", "full"}}
	a, err := RunCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	b, err := RunCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell count differs: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs:\n seq: %+v\n par: %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestROPMatrix pins §6.2.1 for the backward edge: the frame-record smash
// hijacks the unprotected kernel and is detected by every PAuth build.
func TestROPMatrix(t *testing.T) {
	r, err := ROPFrameRecord(LevelOf(core.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != OutcomeHijacked {
		t.Errorf("unprotected ROP: %s (%s), want HIJACKED", r.Outcome, r.Detail)
	}
	for _, l := range []core.ProtectionLevel{core.LevelBackwardEdge, core.LevelFull} {
		r, err := ROPFrameRecord(LevelOf(l))
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != OutcomeDetected {
			t.Errorf("%s ROP: %s (%s), want detected", l, r.Outcome, r.Detail)
		}
		if r.PACFailures == 0 {
			t.Errorf("%s ROP: no PAC failures recorded", l)
		}
	}
}

// TestFOpsSwapMatrix pins §4.5: without DFI the ops-table pointer swap
// hijacks control flow; with DFI it is detected. This is the paper's
// justification for protecting *data* pointers to operations tables.
func TestFOpsSwapMatrix(t *testing.T) {
	for _, c := range []struct {
		level core.ProtectionLevel
		want  Outcome
	}{
		{core.LevelNone, OutcomeHijacked},
		{core.LevelBackwardEdge, OutcomeHijacked},
		{core.LevelFull, OutcomeDetected},
	} {
		r, err := FOpsSwap(LevelOf(c.level))
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != c.want {
			t.Errorf("%s f_ops swap: %s (%s), want %s", c.level, r.Outcome, r.Detail, c.want)
		}
	}
}

// TestFOpsReplayMatrix pins §6.2.1/§7: the cross-object transplant of a
// correctly signed pointer succeeds under the Apple-style zero modifier
// but fails under the §4.3 address-bound modifier.
func TestFOpsReplayMatrix(t *testing.T) {
	full, err := FOpsReplay(LevelOf(core.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	if full.Outcome != OutcomeDetected {
		t.Errorf("full: replay %s (%s), want detected", full.Outcome, full.Detail)
	}
	zero, err := FOpsReplay(zeroModifier)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Outcome != OutcomeHijacked {
		t.Errorf("zero-modifier: replay %s (%s), want HIJACKED (Apple-scheme weakness, §7)",
			zero.Outcome, zero.Detail)
	}
}

// TestBruteForceHaltsAtThreshold pins §5.4: guessing the 15-bit PAC is
// cut off by the failure threshold long before the search space is
// covered.
func TestBruteForceHaltsAtThreshold(t *testing.T) {
	rep, err := BruteForcePAC(LevelOf(core.LevelFull), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded {
		t.Fatalf("brute force guessed a valid PAC in %d attempts (p≈2^-15 each)", rep.Attempts)
	}
	if !rep.Halted {
		t.Fatal("system did not halt at the failure threshold")
	}
	if rep.Attempts > rep.Threshold+1 {
		t.Fatalf("attacker got %d attempts against threshold %d", rep.Attempts, rep.Threshold)
	}
}

// TestMatrixComplete runs the full §6.2 table and checks the headline
// property: the full build detects everything; the unprotected build is
// hijacked by everything.
func TestMatrixComplete(t *testing.T) {
	reports, err := Matrix(context.Background(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4*4 {
		t.Fatalf("matrix has %d cells, want 16", len(reports))
	}
	for _, r := range reports {
		switch {
		case r.Level == "full" && r.Outcome != OutcomeDetected:
			t.Errorf("full vs %s: %s (%s)", r.Attack, r.Outcome, r.Detail)
		case r.Level == "none" && r.Outcome != OutcomeHijacked:
			t.Errorf("none vs %s: %s (%s)", r.Attack, r.Outcome, r.Detail)
		}
	}
}

// TestReplayCensus pins the E10 ablation: collision counts order as
// none ≫ Clang-SP > PARTS > Camouflage (= 0).
func TestReplayCensus(t *testing.T) {
	const threads, depths, funcs = 8, 16, 8
	clang := ReplayCensus(pac.ModifierClangSP, threads, depths, funcs)
	parts := ReplayCensus(pac.ModifierPARTS, threads, depths, funcs)
	camo := ReplayCensus(pac.ModifierCamouflage, threads, depths, funcs)

	if camo.CollidingPairs != 0 {
		t.Errorf("Camouflage census found %d colliding pairs, want 0", camo.CollidingPairs)
	}
	if parts.CollidingPairs == 0 {
		t.Error("PARTS census found no collisions; 16 KiB-strided stacks must alias at 64 KiB (§7)")
	}
	if clang.CollidingPairs <= parts.CollidingPairs {
		t.Errorf("Clang-SP (%d) should collide more than PARTS (%d)",
			clang.CollidingPairs, parts.CollidingPairs)
	}
	if clang.Contexts != threads*depths*funcs {
		t.Errorf("census enumerated %d contexts, want %d", clang.Contexts, threads*depths*funcs)
	}
}

// TestClangSPCollidesAcrossFunctions pins the specific §4.2 weakness: at
// one SP, every return site shares the Clang-SP modifier.
func TestClangSPCollidesAcrossFunctions(t *testing.T) {
	r := ReplayCensus(pac.ModifierClangSP, 1, 1, 16)
	// 16 functions, one SP: all 16 modifiers equal → C(16,2) pairs.
	if want := 16 * 15 / 2; r.CollidingPairs != want {
		t.Fatalf("collisions = %d, want %d", r.CollidingPairs, want)
	}
	c := ReplayCensus(pac.ModifierCamouflage, 1, 1, 16)
	if c.CollidingPairs != 0 {
		t.Fatalf("Camouflage collides across functions: %d", c.CollidingPairs)
	}
}

// TestPARTSCollidesAt64K pins §7's PARTS analysis in the census setting.
func TestPARTSCollidesAt64K(t *testing.T) {
	// Threads 0 and 4 have stacks exactly 64 KiB apart (16 KiB stride):
	// identical low 16 SP bits → identical PARTS modifiers.
	r := ReplayCensus(pac.ModifierPARTS, 5, 1, 1)
	if r.CollidingPairs == 0 {
		t.Fatal("no PARTS collision among 5 threads at 16 KiB stride")
	}
	c := ReplayCensus(pac.ModifierCamouflage, 5, 1, 1)
	if c.CollidingPairs != 0 {
		t.Fatalf("Camouflage collided: %d", c.CollidingPairs)
	}
}

// TestCredSwapMatrix pins the §4.5 f_cred scenario: without DFI the
// forged credentials are consulted silently; with DFI the swap faults.
func TestCredSwapMatrix(t *testing.T) {
	none, err := CredSwap(LevelOf(core.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	if none.Outcome != OutcomeHijacked {
		t.Errorf("none: cred swap %s (%s), want HIJACKED", none.Outcome, none.Detail)
	}
	full, err := CredSwap(LevelOf(core.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	if full.Outcome != OutcomeDetected {
		t.Errorf("full: cred swap %s (%s), want detected", full.Outcome, full.Detail)
	}
}

// TestVerificationOracle pins §6.2.3: user keys cannot verify
// kernel-signed pointers; kernel keys can.
func TestVerificationOracle(t *testing.T) {
	for seed := uint64(40); seed < 44; seed++ {
		r, err := VerificationOracle(LevelOf(core.LevelFull), seed)
		if err != nil {
			t.Fatal(err)
		}
		if !r.KernelAuthSucceeded {
			t.Fatalf("seed %d: kernel keys failed to verify their own PAC", seed)
		}
		if r.UserAuthSucceeded {
			t.Fatalf("seed %d: user keys verified a kernel PAC — oracle exists", seed)
		}
	}
}

// TestUnmutatedStrikeOnForkMatchesMatrix checks the assumption the
// campaign rests on: an attack window located on the armed machine is
// valid in every fork of it, because forking is exact. For every base
// scenario at every level and at 1 and 2 vCPUs, an unmutated strike on
// a fork of the armed machine must reproduce the matrix row struck on
// the armed machine itself: outcome, detail (which carries gadget
// counts) and PAC failures. The matrix strikes its rows in parallel
// here, so this also pins parallel rows to sequential strikes.
func TestUnmutatedStrikeOnForkMatchesMatrix(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		rows, err := Matrix(context.Background(), cpus, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(Levels()) * len(baseScenarios()); len(rows) != want {
			t.Fatalf("%d vCPU: matrix has %d rows, want %d", cpus, len(rows), want)
		}
		i := 0
		for _, lv := range Levels() {
			for _, sc := range baseScenarios() {
				want := rows[i]
				i++
				k, err := bootWith(lv, cpus, sc.seed)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sc.arm(k)
				if err != nil {
					t.Fatal(err)
				}
				fork, err := snapshot.Take(k).Fork()
				if err != nil {
					t.Fatal(err)
				}
				out, detail := sc.attempt(fork, w)
				got := Report{Attack: sc.name, Level: lv.Name, Outcome: out,
					PACFailures: fork.PACFailures, Detail: detail}
				if got != want {
					t.Errorf("%d vCPU: fork strike differs from the matrix row:\n fork:   %+v\n matrix: %+v",
						cpus, got, want)
				}
			}
		}
	}
}

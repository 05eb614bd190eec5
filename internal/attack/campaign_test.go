package attack

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"camouflage/internal/obs"
	"camouflage/internal/pac"
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
			Mutations: 3, Seed: 5, Parallel: true,
			Levels: []string{"full"}, CPUs: 2,
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
		Mutations: 2, Seed: 5, Parallel: true, Levels: []string{"none"},
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

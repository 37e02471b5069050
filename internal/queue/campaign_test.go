package queue

import (
	"testing"
)

// TestCampaign is the headline robustness claim: hundreds of seeded
// cases of daemon kill -9 over the production segmented journal (torn
// tails and killed rotations included) and injected worker crashes,
// every one converging with zero lost jobs, zero double completions,
// and artifacts byte-identical to serial runs of the same specs.
func TestCampaign(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	sum, err := RunCampaign(CampaignConfig{
		Cases: cases,
		Seed:  20260808,
		Dir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for i, f := range sum.Failures {
		if i >= 20 {
			t.Errorf("... and %d more failures", len(sum.Failures)-i)
			break
		}
		t.Error(f)
	}
	if sum.Lost != 0 || sum.Doubled != 0 || sum.Mismatched != 0 {
		t.Fatalf("campaign verdict: lost=%d doubled=%d mismatched=%d", sum.Lost, sum.Doubled, sum.Mismatched)
	}
	if sum.DaemonKills == 0 {
		t.Fatal("campaign exercised zero daemon kills; the seed schedule is broken")
	}
	if sum.WorkerPanics == 0 {
		t.Fatal("campaign exercised zero worker panics; the seed schedule is broken")
	}
	if sum.Redelivered == 0 {
		t.Fatal("campaign saw zero redeliveries; crashes are not being recovered through the lease path")
	}
	if sum.TornTails == 0 {
		t.Fatal("campaign saw zero torn tails; kills are not tearing the journal")
	}
	if sum.Compactions == 0 {
		t.Fatal("campaign saw zero compactions; the segmented journal's rotation is never killed")
	}
	t.Logf("campaign: %d cases, %d daemon kills, %d worker panics, %d redeliveries, %d torn tails, %d compactions",
		sum.Cases, sum.DaemonKills, sum.WorkerPanics, sum.Redelivered, sum.TornTails, sum.Compactions)
}

// TestCampaignNoJournalControl is the negative control: the identical
// campaign with the journal disabled must observably lose jobs across a
// kill. A checker that cannot see this loss would also rubber-stamp a
// broken journal.
func TestCampaignNoJournalControl(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 8
	}
	sum, err := RunCampaign(CampaignConfig{
		Cases:    cases,
		Seed:     20260808,
		Volatile: true,
		Dir:      t.TempDir(),
	})
	if err != nil {
		t.Fatalf("control campaign: %v", err)
	}
	if sum.Bad() {
		t.Fatalf("control campaign hit non-loss failures: %v", sum.Failures)
	}
	if sum.LossDetectedCases == 0 {
		t.Fatal("no-journal control lost nothing: the checker cannot detect the failure the journal prevents")
	}
	t.Logf("control: %d/%d cases observably lost jobs without the journal (%d jobs total)",
		sum.LossDetectedCases, sum.Cases, sum.Lost)
}

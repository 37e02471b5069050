package crashtest

import (
	"strings"
	"testing"

	"asap"
)

// TestRunPostReportsThreadPanic: a panic in the rebooted machine's thread
// is a finding, returned as a problem string, not a harness crash.
func TestRunPostReportsThreadPanic(t *testing.T) {
	cfg := asap.DefaultConfig()
	cfg.Cores = 2
	sys, err := asap.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	problem := runPost(sys, 1, func(c *Ctx) string { panic("corrupt chain") })
	if !strings.Contains(problem, "post-recovery run panicked: corrupt chain") {
		t.Fatalf("problem = %q, want the thread's panic reported", problem)
	}
}

package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"asap/internal/machine"
	"asap/internal/snapshot"
)

// TestRecycledLevelsAreOutputNeutral runs cell X on freshly allocated
// cache arrays, then cells Y and X again on arrays recycled from the
// cells before them: X's result and its final machine-state digest must
// be byte-identical across the two runs.
func TestRecycledLevelsAreOutputNeutral(t *testing.T) {
	type cell struct {
		res      string
		digest   string
		recycled int
	}
	var last cell
	beforeRelease = func(m *machine.Machine) {
		e := snapshot.NewEnc()
		m.AppendState(e)
		last.digest = fmt.Sprint(e.Sections())
		last.recycled = m.Caches.RecycledLevels()
	}
	defer func() { beforeRelease = nil }()
	run := func(v Variant, bench string) cell {
		res := Run(v, bench, tinyScale(), 64)
		last.res = fmt.Sprintf("%+v", res)
		return last
	}

	// Two collections empty every sync.Pool, so X's first run allocates.
	runtime.GC()
	runtime.GC()
	x := run(Variant{Scheme: "ASAP"}, "HM")
	if x.recycled != 0 {
		t.Fatalf("first run took %d recycled levels from an emptied pool", x.recycled)
	}
	run(Variant{Scheme: "HWUndo", PMMult: 4}, "Q")
	again := run(Variant{Scheme: "ASAP"}, "HM")
	if again.recycled == 0 {
		t.Fatal("the rerun recycled no levels; the test would prove nothing")
	}
	if again.res != x.res {
		t.Fatalf("result on recycled levels\n%s\ndiffers from fresh\n%s", again.res, x.res)
	}
	if again.digest != x.digest {
		t.Fatalf("machine digest on recycled levels\n%s\ndiffers from fresh\n%s", again.digest, x.digest)
	}
}

package machine

import (
	"testing"
	"testing/quick"

	"asap/internal/arch"
	"asap/internal/sim"
)

func TestLinesOfSingleLine(t *testing.T) {
	lines := LinesOf(100, 8)
	if len(lines) != 1 || lines[0] != 64 {
		t.Fatalf("LinesOf(100,8) = %v", lines)
	}
}

func TestLinesOfSpansBoundary(t *testing.T) {
	lines := LinesOf(60, 8) // bytes 60..67 cross line 0 into line 1
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 64 {
		t.Fatalf("LinesOf(60,8) = %v", lines)
	}
}

func TestLinesOfLargeSpan(t *testing.T) {
	lines := LinesOf(64, 2048)
	if len(lines) != 32 {
		t.Fatalf("2KB from line start should touch 32 lines, got %d", len(lines))
	}
}

func TestLinesOfZeroSize(t *testing.T) {
	lines := LinesOf(128, 0)
	if len(lines) != 1 {
		t.Fatalf("zero-size access still touches one line, got %v", lines)
	}
}

func TestLinesOfCoversEveryByte(t *testing.T) {
	f := func(off uint16, size uint8) bool {
		addr := uint64(off)
		n := int(size)
		if n == 0 {
			n = 1
		}
		lines := LinesOf(addr, n)
		set := map[arch.LineAddr]bool{}
		for _, l := range lines {
			set[l] = true
		}
		for i := 0; i < n; i++ {
			if !set[arch.LineOf(addr+uint64(i))] {
				return false
			}
		}
		// And no extra lines.
		return len(lines) == len(set) && len(set) <= n/arch.LineSize+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoreOfDefaultsAndMigration(t *testing.T) {
	m := New(Config{Cores: 4})
	var got [3]int
	m.K.Spawn("a", func(th *sim.Thread) {
		got[0] = m.CoreOf(th)
		m.SetCore(th, 3)
		got[1] = m.CoreOf(th)
	})
	m.K.Spawn("b", func(th *sim.Thread) {
		th.Advance(10)
		got[2] = m.CoreOf(th)
	})
	m.K.Run()
	if got[0] != 0 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("cores = %v, want [0 3 1]", got)
	}
}

func TestSetCoreOutOfRangePanics(t *testing.T) {
	m := New(Config{Cores: 2})
	m.K.Spawn("a", func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		m.SetCore(th, 7)
	})
	m.K.Run()
}

func TestDefaultsFilledIn(t *testing.T) {
	m := New(Config{})
	if m.Cfg.Cores != 18 {
		t.Fatalf("default cores = %d", m.Cfg.Cores)
	}
	if m.Cfg.Mem.WPQEntries != 128 {
		t.Fatalf("default WPQ = %d", m.Cfg.Mem.WPQEntries)
	}
	if m.Caches == nil || m.Fabric == nil || m.Heap == nil {
		t.Fatal("machine not fully assembled")
	}
}

func TestAccessChargesLatencyAndTouches(t *testing.T) {
	m := New(Config{Cores: 2})
	addr := m.Heap.Alloc(128, true)
	var touched []arch.LineAddr
	var elapsed uint64
	m.K.Spawn("a", func(th *sim.Thread) {
		start := th.Now()
		m.Access(th, addr, 128, true, func(l arch.LineAddr) { touched = append(touched, l) })
		elapsed = th.Now() - start
	})
	m.K.Run()
	if len(touched) != 2 {
		t.Fatalf("touched %d lines, want 2", len(touched))
	}
	if elapsed == 0 {
		t.Fatal("no latency charged")
	}
}

func TestNewRejectsTooManyCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 65 cores must panic: holders masks have 64 bits")
		}
	}()
	New(Config{Cores: 65})
}

// TestUseAfterReleasePanics: once released, the machine's cache arrays
// belong to the pool, so any access must fail loudly rather than read or
// write another machine's lines. A second Release is a no-op.
func TestUseAfterReleasePanics(t *testing.T) {
	m := New(Config{Cores: 2})
	addr := m.Heap.Alloc(64, true)
	m.K.Spawn("warm", func(th *sim.Thread) { m.Access(th, addr, 8, true, nil) })
	m.K.Run()
	m.Release()
	m.Release()

	panicked := false
	m.K.Spawn("late", func(th *sim.Thread) {
		defer func() { panicked = recover() != nil }()
		m.Access(th, addr, 8, false, nil)
	})
	m.K.Run()
	if !panicked {
		t.Fatal("Access after Release did not panic")
	}
}

// BenchmarkMachineNew builds a Table 2 machine from freshly allocated
// cache arrays: the per-cell set-up cost when nothing is recycled.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig())
	}
}

// BenchmarkMachineNewRelease is the New→Release cycle every sweep cell
// runs: after the first iteration the cache arrays come from the pool.
func BenchmarkMachineNewRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig()).Release()
	}
}

package iofault_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"asap/internal/iofault"
	"asap/internal/queue"
)

// TestKillTripKillsTheWholeFS: a Kill trip tears its sync like a torn
// sync, then the whole FaultFS dies. Every later operation fails with
// EIO and changes nothing, so the journal's rollback truncate cannot
// erase the torn tail — the next open over the real filesystem finds it.
func TestKillTripKillsTheWholeFS(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS{}, 3)
	j, _, _, err := queue.OpenDirJournal(ffs, dir, queue.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := j.Append(queue.Record{Type: queue.RecEnqueue, ID: id, Spec: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	side, err := ffs.OpenFile(filepath.Join(dir, "side"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	good := j.Size()

	ffs.Arm(iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassTornSync, N: 1, Substr: "journal-", Kill: true})
	big := json.RawMessage(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 1000)))
	if err := j.Append(queue.Record{Type: queue.RecEnqueue, ID: 3, Spec: big}); err == nil {
		t.Fatal("append across the kill succeeded")
	}
	if !ffs.Dead() {
		t.Fatal("Kill trip fired but the FS is not dead")
	}
	seg := filepath.Join(dir, "journal-00000001.asapq")
	sizeOf := func() int64 {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	torn := sizeOf()
	if torn <= good {
		t.Fatalf("segment is %d bytes, want a torn tail past %d", torn, good)
	}

	_, werr := side.Write([]byte("x"))
	_, oerr := ffs.OpenFile(filepath.Join(dir, "new"), os.O_CREATE|os.O_WRONLY, 0o644)
	_, cerr := ffs.CreateTemp(dir, ".tmp-*")
	for op, err := range map[string]error{
		"write":      werr,
		"sync":       side.Sync(),
		"truncate":   ffs.Truncate(seg, good),
		"rename":     ffs.Rename(seg, seg+".moved"),
		"remove":     ffs.Remove(seg),
		"syncdir":    ffs.SyncDir(dir),
		"openfile":   oerr,
		"createtemp": cerr,
	} {
		if !errors.Is(err, syscall.EIO) {
			t.Errorf("%s on a dead FS: got %v, want EIO", op, err)
		}
	}
	side.Close()
	j.Close()
	if got := sizeOf(); got != torn {
		t.Fatalf("dead FS changed the segment: %d bytes, was %d", got, torn)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Fatalf("dead FS changed the directory: %d entries, want segment + side file", len(ents))
	}

	j2, recs, rep, err := queue.OpenDirJournal(iofault.OS{}, dir, queue.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.TornBytes != torn-good || len(recs) != 2 {
		t.Fatalf("reopen: %d records, %d torn bytes; want 2 records, %d torn bytes", len(recs), rep.TornBytes, torn-good)
	}
}

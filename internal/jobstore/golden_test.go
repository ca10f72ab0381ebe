package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalBytesGolden pins the journal's on-disk bytes through its
// whole write life: the header an Open creates, framed appends, a
// torn-tail repair, an append on the repaired file and a compaction. The
// goldens are never regenerated: a byte change here is a journal format
// change, which every journal already on disk would have to survive.
func TestJournalBytesGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j,
		Record{Kind: KindSubmitted, JobID: "a", Tenant: "team-a", Spec: json.RawMessage(`{"kind":"sweep","experiment":"fig2"}`)},
		Record{Kind: KindSubmitted, JobID: "b", Spec: json.RawMessage(`{"kind":"simulate"}`)},
		Record{Kind: KindDone, JobID: "a", Result: json.RawMessage(`{"rows":[1,2,3]}`)},
		Record{Kind: KindDone, JobID: "b", Result: json.RawMessage(`{}`)},
		Record{Kind: KindFailed, JobID: "b", Error: json.RawMessage(`{"code":"panic"}`)},
		Record{Kind: KindFailed, JobID: "orphan", Error: json.RawMessage(`{"code":"timeout"}`)},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: a frame header and part of its payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 10 || len(rec.Records) != 6 {
		t.Fatalf("repair kept %d records and dropped %d bytes, want 6 and 10", len(rec.Records), rec.TruncatedBytes)
	}
	appendAll(t, j, Record{Kind: KindSubmitted, JobID: "c", Spec: json.RawMessage(`{"kind":"analyze"}`)})
	matchGolden(t, path, "journal_repaired.golden")

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, Record{Kind: KindDone, JobID: "c", Result: json.RawMessage(`{"verdict":"accept"}`)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	matchGolden(t, path, "journal_compacted.golden")
}

func matchGolden(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ from testdata/%s:\ngot  %q\nwant %q", golden, got, want)
	}
}

// Package jobstore persists the euad daemon's job lifecycle in a
// crash-safe append-only journal, so a kill -9 at any instant loses no
// accepted work: on restart the journal is replayed, finished jobs keep
// their results, and unfinished jobs are re-run (sweeps resume from their
// per-job checkpoint, bit-identically).
//
// On-disk format: an 8-byte magic header, then records framed by
// storage.AppendFrame —
//
//	uint32 LE payload length | uint32 LE CRC32-C of payload | payload JSON
//
// Appends are flushed with fsync before the daemon acknowledges the job,
// so an acknowledged submission survives any crash. A torn tail (crash
// mid-append) or a bit-flipped record is detected by the framing CRC;
// recovery keeps the longest valid prefix and atomically rewrites the
// file (storage.WriteFileAtomic), so the journal is self-healing and
// every subsequent open sees only intact records.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/euastar/euastar/internal/storage"
)

// magic identifies a euad journal file (and its format version).
var magic = [8]byte{'E', 'U', 'A', 'J', 'R', 'N', 'L', '1'}

// maxRecordBytes bounds one record's payload; a corrupt length field must
// not trigger a multi-gigabyte allocation.
const maxRecordBytes = 64 << 20

// ErrJournalCorrupt reports a journal whose header is not ours: either a
// foreign file or damage beyond tail-truncation repair. Torn or
// bit-flipped records are NOT this error — those are expected crash
// debris and are repaired silently during Open.
var ErrJournalCorrupt = errors.New("jobstore: journal corrupt")

// ErrPoisoned reports a journal that suffered an unrecoverable storage
// failure — an fsync error (the kernel's dirty-page state is unknowable
// afterwards), or a failed append whose partial frame could not be cut
// back off. A poisoned journal refuses all further appends: the daemon
// must answer 503 instead of acknowledging work it cannot make durable.
// Poisoning is sticky for the life of the handle; a restart re-opens and
// repairs the file from scratch.
var ErrPoisoned = errors.New("jobstore: journal poisoned by storage failure")

// Kind is a job lifecycle transition.
type Kind string

const (
	// KindSubmitted records an accepted job and its full spec. It is
	// written (and fsynced) before the daemon acknowledges the
	// submission, so every acknowledged job is durable.
	KindSubmitted Kind = "submitted"
	// KindDone records a successful completion and its result.
	KindDone Kind = "done"
	// KindFailed records a terminal failure and its structured error.
	KindFailed Kind = "failed"
)

// Record is one journal entry. Spec, Result and Error are opaque JSON
// blobs: the journal persists the server's types without depending on
// them.
type Record struct {
	Seq    uint64          `json:"seq"`
	Kind   Kind            `json:"kind"`
	JobID  string          `json:"job_id"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  json.RawMessage `json:"error,omitempty"`
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// Records is the replayed journal, in append order.
	Records []Record
	// TruncatedBytes is how much torn or corrupt tail was discarded. Zero
	// means the file was fully intact.
	TruncatedBytes int
}

// JobState is a job's current position in its lifecycle, rebuilt from the
// journal.
type JobState struct {
	ID     string
	Tenant string // tenant recorded on submission (empty for legacy records)
	Spec   json.RawMessage
	Kind   Kind // latest lifecycle record: submitted, done or failed
	Result json.RawMessage
	Error  json.RawMessage
}

// Terminal reports whether the job reached a terminal state and therefore
// must not be re-run on restart.
func (s *JobState) Terminal() bool { return s.Kind == KindDone || s.Kind == KindFailed }

// Journal is an open, append-only job journal. Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	fs       storage.FS
	path     string
	f        storage.File
	seq      uint64
	size     int64 // bytes of intact records (header included)
	poisoned bool
}

// Open opens (or creates) the journal at path on the real filesystem,
// replays it, and repairs any torn tail. The returned Recovery holds the
// surviving records; use Rebuild to collapse them into per-job states.
func Open(path string) (*Journal, *Recovery, error) {
	return OpenFS(storage.OS(), path)
}

// OpenFS is Open on an explicit filesystem — the injection point for
// storage fault plans in tests and chaos suites.
func OpenFS(fs storage.FS, path string) (*Journal, *Recovery, error) {
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data = nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("jobstore: read journal: %w", err)
	}
	recs, goodLen, err := scan(data)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{Records: recs, TruncatedBytes: len(data) - goodLen}
	size := int64(goodLen)
	if rec.TruncatedBytes > 0 || len(data) < len(magic) {
		// Crash debris past the valid prefix, or a missing/partial header:
		// rewrite the clean prefix atomically so the file is intact again.
		if err := rewrite(fs, path, data[:goodLen]); err != nil {
			return nil, nil, err
		}
		if goodLen < len(magic) {
			size = int64(len(magic)) // rewrite wrote at least the header
		}
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: open journal for append: %w", err)
	}
	j := &Journal{fs: fs, path: path, f: f, size: size}
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, rec, nil
}

// scan walks the framed records and returns the longest valid prefix:
// the decoded records and how many bytes of the file they (plus the
// header) occupy. A wrong magic header is ErrJournalCorrupt; anything
// else merely ends the valid prefix.
func scan(data []byte) ([]Record, int, error) {
	if len(data) < len(magic) {
		// Empty or torn before the header finished: an empty journal.
		return nil, 0, nil
	}
	if [8]byte(data[:8]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic header", ErrJournalCorrupt)
	}
	var recs []Record
	off := len(magic)
	for {
		payload, rest, err := storage.ReadFrame(data[off:], maxRecordBytes)
		if err != nil {
			return recs, off, nil // torn, too long or bit-flipped: stop at the last good record
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, off, nil // framed but not ours: treat as corrupt tail
		}
		recs = append(recs, r)
		off = len(data) - len(rest)
	}
}

// rewrite atomically replaces the journal with header + body (at least
// the header), creating the journal's directory first.
func rewrite(fs storage.FS, path string, body []byte) error {
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("jobstore: create journal dir: %w", err)
	}
	if len(body) < len(magic) {
		body = magic[:]
	}
	if err := storage.WriteFileAtomic(fs, path, body); err != nil {
		return fmt.Errorf("jobstore: rewrite journal: %w", err)
	}
	return nil
}

// Append assigns the record the next sequence number, frames it, writes
// it, and fsyncs before returning: once Append returns nil the record
// survives any crash. On failure the journal repairs or poisons itself:
//
//   - A failed or short write leaves a partial frame; Append truncates
//     the file back to the last intact record, so the un-acknowledged
//     record cannot resurface as durable after a restart. If the
//     truncate itself fails, the journal is poisoned.
//   - A failed fsync poisons the journal unconditionally: after fsync
//     reports an error the kernel's dirty-page state is unknowable, so
//     no further append can honestly claim durability. The truncate is
//     still attempted, keeping the on-disk bytes consistent for the next
//     process.
//
// Once poisoned, every Append fails fast with ErrPoisoned.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("jobstore: journal closed")
	}
	if j.poisoned {
		return ErrPoisoned
	}
	j.seq++
	r.Seq = j.seq
	payload, err := json.Marshal(r)
	if err != nil {
		j.seq--
		return fmt.Errorf("jobstore: marshal record: %w", err)
	}
	frame := storage.AppendFrame(make([]byte, 0, storage.FrameHeaderSize+len(payload)), payload)
	if _, err := j.f.Write(frame); err != nil {
		j.repairLocked()
		return fmt.Errorf("jobstore: append record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.repairLocked()
		j.poisoned = true
		return fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	j.size += int64(len(frame))
	return nil
}

// repairLocked cuts a partially written frame back off the tail so the
// failed record cannot be replayed as durable. A truncate failure leaves
// unknown bytes past the intact prefix and poisons the journal (the
// next Open's torn-tail scan will still repair the file).
func (j *Journal) repairLocked() {
	if err := j.f.Truncate(j.size); err != nil {
		j.poisoned = true
	}
}

// Poisoned reports whether the journal has refused durability after a
// storage failure. Poisoning is sticky until the journal is re-opened.
func (j *Journal) Poisoned() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poisoned
}

// Compact rewrites the journal to the minimal equivalent history: per
// job, the submitted record plus the terminal record (if any), in the
// original sequence order. The surviving history is re-read from the
// file under the journal's lock — never taken from the caller — so a
// record appended concurrently with compaction cannot be dropped by a
// rewrite built from a stale snapshot. The rewrite is atomic; the
// append handle is reopened on the new file.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("jobstore: journal closed")
	}
	if j.poisoned {
		return ErrPoisoned
	}
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("jobstore: read journal: %w", err)
	}
	records, _, err := scan(data)
	if err != nil {
		return err
	}
	states := Rebuild(records)
	keep := make([]Record, 0, len(records))
	for _, r := range records {
		st := states[r.JobID]
		if st == nil {
			continue
		}
		switch r.Kind {
		case KindSubmitted:
			keep = append(keep, r)
		case KindDone, KindFailed:
			if r.Kind == st.Kind {
				keep = append(keep, r)
			}
		}
	}
	body := magic[:]
	var maxSeq uint64
	for _, r := range keep {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		payload, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("jobstore: marshal record: %w", err)
		}
		body = storage.AppendFrame(body, payload)
	}
	if err := rewrite(j.fs, j.path, body); err != nil {
		return err
	}
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: reopen journal: %w", err)
	}
	j.f.Close()
	j.f = f
	j.size = int64(len(body))
	if maxSeq > j.seq {
		j.seq = maxSeq
	}
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Rebuild collapses a replayed journal into per-job states: the spec from
// the submission record, overlaid with the latest terminal record.
// Records for jobs that were never submitted (their submission fell past
// a corrupt region) are kept too — their result is still valid, only the
// spec is missing.
func Rebuild(records []Record) map[string]*JobState {
	states := make(map[string]*JobState)
	for _, r := range records {
		st := states[r.JobID]
		if st == nil {
			st = &JobState{ID: r.JobID}
			states[r.JobID] = st
		}
		switch r.Kind {
		case KindSubmitted:
			st.Spec = r.Spec
			st.Tenant = r.Tenant
			if st.Kind == "" {
				st.Kind = KindSubmitted
			}
		case KindDone:
			st.Kind = KindDone
			st.Result = r.Result
		case KindFailed:
			st.Kind = KindFailed
			st.Error = r.Error
		}
	}
	return states
}

// ReadAll replays the journal at path without opening it for appends —
// the inspection entry point for tests and tooling. It never repairs the
// file.
func ReadAll(path string) (*Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: read journal: %w", err)
	}
	recs, goodLen, err := scan(data)
	if err != nil {
		return nil, err
	}
	return &Recovery{Records: recs, TruncatedBytes: len(data) - goodLen}, nil
}

package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// errClosed rejects appends to, and syncs of, a closed journal.
var errClosed = errors.New("runlog: journal closed")

// Journal is a durable append-only log of JSON records of type T, one per
// line, in a size-bounded RotatingFile. It is the storage shared by the run
// registry (runs.jsonl), the calibration ledger (calib.jsonl) and the
// watchdog's alert log (alerts.jsonl); each owner keeps only its in-memory
// view of the records.
//
// Every record carries a string ID. The journal issues "<prefix>-%06d" to a
// record appended without one, continuing past the largest such ID it has
// replayed, so IDs stay monotonic across restarts.
//
// Append never waits on I/O: it queues the record, and a writer goroutine
// encodes and writes records in queue order. A full queue blocks Append
// (backpressure, never loss). The first failed encode, write or flush stays
// in Err. Safe for concurrent use.
type Journal[T any] struct {
	path   string
	prefix string
	id     func(*T) *string

	mu       sync.Mutex // serializes ID issue and the owner's update
	seq      uint64
	closed   atomic.Bool
	inflight sync.WaitGroup // admitted sends Close must wait for

	file  *RotatingFile // nil for an in-memory journal
	queue chan entry[T] // nil for an in-memory journal
	done  chan struct{}
	err   atomic.Pointer[error]
}

// entry is one queued record, or a Sync request when ack is set.
type entry[T any] struct {
	rec T
	ack chan error
}

// OpenJournal opens the journal at path. It replays the records of the
// rotated siblings, oldest first, and then of path itself, passing each to
// replay; restores the ID sequence from them; truncates a half-written final
// line of path, so the next record starts a line of its own; and starts the
// writer. A record is a newline-terminated line that parses as a T with a
// non-empty ID not seen before; every other line is skipped, so only I/O
// errors fail the open. id returns the address of a record's ID field.
// opts.MaxBytes, Keep and Buffer bound the file and the queue as documented
// on Options. An empty path gives an in-memory journal: it issues IDs and
// writes nothing.
func OpenJournal[T any](path, prefix string, opts Options, id func(*T) *string, replay func(T)) (*Journal[T], error) {
	j := &Journal[T]{path: path, prefix: prefix, id: id}
	if path == "" {
		return j, nil
	}
	_, repair, err := replayChain(path, id, func(rec T) {
		j.advancePast(*id(&rec))
		replay(rec)
	})
	if err != nil {
		return nil, err
	}
	if repair >= 0 {
		if err := os.Truncate(path, repair); err != nil {
			return nil, fmt.Errorf("runlog: repairing %s: %w", path, err)
		}
	}
	if j.file, err = OpenRotating(path, opts.MaxBytes, opts.Keep); err != nil {
		return nil, err
	}
	// The queue absorbs bursts of appends so they need not wait for the
	// disk; once it is full, appends wait.
	buf := opts.Buffer
	if buf <= 0 {
		buf = 256
	}
	j.queue = make(chan entry[T], buf)
	j.done = make(chan struct{})
	go j.write()
	return j, nil
}

// LoadJournal reads every record of the journal at path, in write order,
// without opening it for writing: the offline access path of udao-traceview.
// It fails when no file of the journal exists.
func LoadJournal[T any](path string, id func(*T) *string) ([]T, error) {
	var out []T
	files, _, err := replayChain(path, id, func(rec T) { out = append(out, rec) })
	if err != nil {
		return nil, err
	}
	if files == 0 {
		return nil, fmt.Errorf("runlog: no journal files at %s: %w", path, os.ErrNotExist)
	}
	return out, nil
}

// replayChain feeds fn the records of path's rotation chain in write order,
// each ID once. It returns how many files of the chain exist and, when path
// ends in a line without a newline, path's length up to that line (else -1).
func replayChain[T any](path string, id func(*T) *string, fn func(T)) (files int, repair int64, err error) {
	chain, err := RotationChain(path)
	if err != nil {
		return 0, -1, err
	}
	seen := map[string]bool{}
	repair = -1
	for _, p := range chain {
		complete, torn, err := replayFile(p, id, seen, fn)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return files, -1, err
		}
		files++
		if torn && p == path {
			repair = complete
		}
	}
	return files, repair, nil
}

// replayFile feeds fn the records of one file whose IDs are not in seen,
// adding them. It returns the file's length up to its last newline and
// whether bytes follow it.
func replayFile[T any](path string, id func(*T) *string, seen map[string]bool, fn func(T)) (complete int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		// A directory squatting on the path holds no records; it surfaces as
		// a write error when rotation reaches it.
		return 0, false, err
	}
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return complete, len(line) > 0, nil
		}
		if err != nil {
			return complete, false, err
		}
		complete += int64(len(line))
		var rec T
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		if k := *id(&rec); k != "" && !seen[k] {
			seen[k] = true
			fn(rec)
		}
	}
}

// advancePast advances the sequence to n when id is "<prefix>-<n>" and n is
// larger.
func (j *Journal[T]) advancePast(id string) {
	digits, ok := strings.CutPrefix(id, j.prefix+"-")
	if !ok {
		return
	}
	if n, err := strconv.ParseUint(digits, 10, 64); err == nil && n > j.seq {
		j.seq = n
	}
}

// Append issues rec the next ID when it has none, calls apply (when non-nil)
// so the owner can update its in-memory state with the final record, and
// queues a copy of the record for the writer. ID issue and apply run under
// one lock, so owners see records in ID order; apply must not call the
// journal. The writer encodes the record after Append returns, so nothing
// the record refers to may change afterwards. A closed journal rejects the
// record before apply runs.
func (j *Journal[T]) Append(rec *T, apply func(*T)) error {
	send, err := j.admit(rec, apply)
	if !send {
		return err
	}
	j.queue <- entry[T]{rec: *rec}
	j.inflight.Done()
	return nil
}

// Sync waits until every record queued before the call is written and the
// file is flushed to stable storage, then returns the write error, if any.
// For checkpoints (tests, shutdown, the watchdog's sweep), not the serving
// path.
func (j *Journal[T]) Sync() error {
	send, err := j.admit(nil, nil)
	if !send {
		return err
	}
	ack := make(chan error, 1)
	j.queue <- entry[T]{ack: ack}
	j.inflight.Done()
	return <-ack
}

// admit is the locked half of Append (rec non-nil) and Sync (rec nil): it
// rejects a closed journal, numbers and applies rec, and reserves a queue
// send that Close waits for. send is false when there is nothing to queue.
func (j *Journal[T]) admit(rec *T, apply func(*T)) (send bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed.Load() {
		return false, errClosed
	}
	if rec != nil {
		id := j.id(rec)
		switch {
		case *id != "":
			j.advancePast(*id)
		case j.seq == math.MaxUint64:
			return false, fmt.Errorf("runlog: %s ID sequence exhausted", j.prefix)
		default:
			j.seq++
			*id = fmt.Sprintf("%s-%06d", j.prefix, j.seq)
		}
		if apply != nil {
			apply(rec)
		}
	}
	if j.queue == nil {
		return false, nil
	}
	j.inflight.Add(1)
	return true, nil
}

// write drains the queue: it encodes and writes each record and answers each
// Sync request once everything queued before it is written.
func (j *Journal[T]) write() {
	defer close(j.done)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for e := range j.queue {
		if e.ack != nil {
			if j.writeErr() == nil {
				j.fail(j.file.Sync())
			}
			e.ack <- j.writeErr()
			continue
		}
		buf.Reset()
		err := enc.Encode(&e.rec)
		if err == nil {
			_, err = j.file.Write(buf.Bytes())
		}
		j.fail(err)
	}
}

// fail keeps err when it is the journal's first failure.
func (j *Journal[T]) fail(err error) {
	if err != nil {
		j.err.CompareAndSwap(nil, &err)
	}
}

func (j *Journal[T]) writeErr() error {
	if p := j.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Err reports whether the journal can still persist records: nil while it
// can, the first failed encode, write or flush (which stays set), or an error
// once the journal is closed. The service's /readyz gates on it.
func (j *Journal[T]) Err() error {
	if err := j.writeErr(); err != nil {
		return err
	}
	if j.closed.Load() {
		return errClosed
	}
	return nil
}

// Close writes everything queued, closes the file and returns the write
// error, if any. Later Appends and Syncs fail; a second Close returns nil.
func (j *Journal[T]) Close() error {
	j.mu.Lock()
	wasClosed := j.closed.Swap(true)
	j.mu.Unlock()
	if wasClosed || j.queue == nil {
		return nil
	}
	j.inflight.Wait()
	close(j.queue)
	<-j.done
	err := j.writeErr()
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Package journal is the crash-recovery write-ahead state store behind
// `chiaroscurod -state-dir`: a small append-only record log a peer
// fsyncs at every protocol commit point, so a process killed −9 can be
// relaunched bit-identical to one that never crashed (the node runtime
// decides what to record; this package only owns durability and
// framing).
//
// On-disk format. The file is a sequence of records:
//
//	uint32 BE  body length (kind byte + payload)
//	uint32 BE  CRC-32 (IEEE) of the body
//	byte       record kind (owned by the caller)
//	payload    kind-specific encoding (owned by the caller)
//
// Decode discipline. A record whose trailing bytes are missing — and
// only the final record may be in that state — is a torn tail: the
// process died mid-append before the fsync, so the record was never
// committed and Open silently truncates the file back to its clean
// prefix. Anything else that fails to decode (a CRC mismatch, an
// impossible length, a torn record with committed records after it) is
// corruption and surfaces as ErrCorrupt: replaying a damaged journal
// would rejoin the population with undefined protocol state, which the
// caller must refuse loudly rather than risk. Decoding never allocates
// beyond what the file's own bytes justify (every record length is
// checked against both MaxRecord and the remaining file size before
// the body is read), so a hostile journal cannot panic or balloon the
// process. Open and Decode, the in-memory form the fuzzers run, share
// this one decoder.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// ErrCorrupt marks a journal whose committed prefix fails to decode:
// a CRC mismatch, an impossible record length, or a truncation before
// the final record. Match with errors.Is; the public API re-exports it
// as chiaroscuro.ErrJournalCorrupt.
var ErrCorrupt = errors.New("journal: corrupt record")

// MaxRecord bounds a single record body. No peer checkpoint approaches
// it (the largest is a full decryption state); a length field above it
// is corruption, not a big record.
const MaxRecord = 1 << 28

// recordHdrLen is the fixed per-record framing overhead.
const recordHdrLen = 8

// Record is one committed journal entry.
type Record struct {
	Kind    byte
	Payload []byte
}

// Journal is an append-only record log. Append buffers in the OS;
// Sync makes everything appended so far durable. Safe for concurrent
// use (the node's exchange loop appends while /healthz reads Lag).
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	pendingEntries int   // records appended since the last Sync
	pendingBytes   int64 // bytes appended since the last Sync
}

// Open opens (or creates) the journal at path and replays its
// committed records. A torn final record — the mark of a crash
// mid-append — is truncated away; any earlier decode failure returns
// ErrCorrupt and no Journal.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	recs, clean, err := decode(f, info.Size())
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// Drop the torn tail so the next append starts at the clean prefix.
	if err := f.Truncate(clean); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(clean, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, recs, nil
}

// Decode replays the records of an in-memory journal image, with the
// same torn-tail tolerance as Open (the tail is simply ignored). It runs
// Open's decoder, and is its pure-function face for tests and fuzzing.
func Decode(data []byte) ([]Record, error) {
	recs, _, err := decode(bytes.NewReader(data), int64(len(data)))
	return recs, err
}

// decode reads every committed record of the size-byte journal image r,
// returning them plus the byte offset of the clean prefix (everything
// before it decoded; everything after is a torn tail to truncate). Each
// record body is an allocation of its own, so a record the caller keeps
// does not pin the rest of the image.
func decode(r io.ReaderAt, size int64) ([]Record, int64, error) {
	var recs []Record
	var off int64
	var hdr [recordHdrLen]byte
	for off < size {
		if size-off < recordHdrLen {
			// A header the image cannot hold: torn mid-append. Only legal
			// at the very tail, which this is by construction of the loop.
			return recs, off, nil
		}
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return nil, 0, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n < 1 || n > MaxRecord {
			return nil, 0, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, n, off)
		}
		if size-off-recordHdrLen < n {
			// Body shorter than its committed length: torn tail.
			return recs, off, nil
		}
		body := make([]byte, n)
		if _, err := r.ReadAt(body, off+recordHdrLen); err != nil {
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[4:8]) {
			return nil, 0, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		recs = append(recs, Record{Kind: body[0], Payload: body[1:]})
		off += recordHdrLen + n
	}
	return recs, off, nil
}

// Append writes one record. The bytes reach the OS immediately but are
// durable only after Sync: the caller orders Append+Sync before
// whatever wire message announces the commit.
func (j *Journal) Append(kind byte, payload []byte) error {
	if len(payload)+1 > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload)+1)
	}
	buf := make([]byte, recordHdrLen+1+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(1+len(payload)))
	buf[recordHdrLen] = kind
	copy(buf[recordHdrLen+1:], payload)
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[recordHdrLen:]))
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.pendingEntries++
	j.pendingBytes += int64(len(buf))
	return nil
}

// Sync fsyncs every record appended so far — the commit point of the
// write-ahead discipline.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pendingEntries = 0
	j.pendingBytes = 0
	return nil
}

// Lag reports how much has been appended since the last Sync — the
// journal-lag numbers /healthz exposes (0, 0 means everything written
// is durable).
func (j *Journal) Lag() (entries int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingEntries, j.pendingBytes
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close syncs and closes the file. Idempotent.
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

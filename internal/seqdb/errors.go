package seqdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"syscall"
)

// TransientError marks a scan failure as worth retrying: the same pass may
// succeed if re-run (an interrupted syscall, a busy device, a flaky NFS
// mount). RetryScanner re-runs passes that fail with a transient error;
// everything else is treated as permanent and surfaces immediately.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return "seqdb: transient: " + e.Err.Error() }

func (e *TransientError) Unwrap() error { return e.Err }

// MarkTransient wraps err so IsTransient reports true for it. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient classifies an error as transient (retrying the pass may
// succeed) or permanent. Explicitly marked errors are transient; corruption
// (CorruptError) and context cancellation are always permanent; a small set
// of retryable syscall errors (EINTR, EAGAIN, EBUSY, EIO, ETIMEDOUT) is
// recognized for raw I/O failures.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, errno := range []syscall.Errno{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.EIO, syscall.ETIMEDOUT} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// maxSymbol is the largest symbol a record may carry (pattern.Symbol is an
// int32): a decoder rejects a larger varint as corrupt rather than letting
// it wrap negative.
const maxSymbol = math.MaxInt32

// badSymbol describes a symbol varint above maxSymbol at position j.
func badSymbol(j int, v uint64) string {
	return fmt.Sprintf("symbol %d at position %d exceeds %d", v, j, maxSymbol)
}

// CorruptError reports on-disk damage detected during a scan: a checksum
// mismatch, an invalid length, a truncated payload, a missing trailer, or
// trailing garbage. Corruption is permanent — re-reading the same bytes
// cannot help — so IsTransient reports false for it.
type CorruptError struct {
	// Path is the backing file.
	Path string
	// Seq is the offending sequence index, or -1 for file-level damage
	// (header, trailer, trailing garbage).
	Seq int
	// Msg describes the damage.
	Msg string
	// Err is the underlying error, if any.
	Err error
}

func (e *CorruptError) Error() string {
	where := "file"
	if e.Seq >= 0 {
		where = fmt.Sprintf("sequence %d", e.Seq)
	}
	s := fmt.Sprintf("seqdb: %s: corrupt %s: %s", e.Path, where, e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *CorruptError) Unwrap() error { return e.Err }

// corrupt builds a CorruptError.
func corrupt(path string, seq int, msg string, err error) error {
	return &CorruptError{Path: path, Seq: seq, Msg: msg, Err: err}
}

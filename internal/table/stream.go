package table

import (
	"fmt"
	"io"
)

// Stream transfer: the spill envelope ("rcpt-col/1" magic, row count,
// payload length, SHA-256, columnar payload) generalized from files to
// io.Writer/io.Reader, so a table can cross a process boundary with the
// same integrity guarantees a spill file has on disk. This is the wire
// format of the cluster layer's work-stealing stage responses: a peer
// encodes the (year, replica) table it computed, the requester decodes
// and checksum-verifies it, and a corrupted or truncated body surfaces
// as *IntegrityError — never as silently wrong rows.

// IntegrityError marks an envelope that failed verification (bad
// magic, truncation, checksum or row-count mismatch), on a stream or in
// a spill file. Callers use it to distinguish "damaged bytes —
// recompute locally" from plain transport and I/O errors.
type IntegrityError struct {
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("table: stream integrity: %s", e.Reason)
}

// EncodeStream writes every row of t to w as one checksummed column
// envelope. The payload is a single Columns batch regardless of how t
// stores its rows — encoding is a pure function of the row sequence, so
// two tables with identical rows encode identically whatever their
// batch size, shard count, or residency.
func EncodeStream[T any](w io.Writer, codec Codec[T], t Table[T]) error {
	cols := codec.NewColumns()
	sc := t.Scanner(0, 1, 1)
	for sc.Scan() {
		cols.Append(sc.Row())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("table: encode stream scan: %w", err)
	}
	return encodeEnvelope(w, cols)
}

// DecodeStream reads one EncodeStream envelope from r, verifies it, and
// returns the decoded rows as a resident table. Integrity failures
// return *IntegrityError.
func DecodeStream[T any](r io.Reader, codec Codec[T]) (Table[T], error) {
	cols := codec.NewColumns()
	if err := decodeEnvelope(r, cols); err != nil {
		return nil, err
	}
	return FromColumns(codec, cols), nil
}

// FromColumns wraps an already-materialized Columns as a read-only
// Table view — no copying. The caller must not mutate cols afterwards.
func FromColumns[T any](codec Codec[T], cols Columns[T]) Table[T] {
	return &columnsTable[T]{codec: codec, cols: cols}
}

type columnsTable[T any] struct {
	codec Codec[T]
	cols  Columns[T]
}

func (t *columnsTable[T]) Len(CountMode) int { return t.cols.Len() }

func (t *columnsTable[T]) Hash() (uint64, error) {
	return HashRows[T](t, t.codec.HashRow)
}

func (t *columnsTable[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, t.cols.Len())
	return t.rowScanner(lo, hi)
}

func (t *columnsTable[T]) rowScanner(lo, hi int) Scanner[T] {
	return &columnsScanner[T]{cols: t.cols, i: lo - 1, hi: hi}
}

type columnsScanner[T any] struct {
	cols Columns[T]
	i    int
	hi   int
}

func (s *columnsScanner[T]) Scan() bool {
	if s.i+1 >= s.hi {
		return false
	}
	s.i++
	return true
}

func (s *columnsScanner[T]) Row() T     { return s.cols.Row(s.i) }
func (s *columnsScanner[T]) Err() error { return nil }

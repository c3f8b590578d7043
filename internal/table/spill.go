package table

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/durable"
)

// The rcpt-col/1 envelope, shared by spill files and stream transfer:
//
//	magic   "rcpt-col/1\n"
//	rows    uvarint — row count, cross-checked after decode
//	paylen  uvarint — payload byte length
//	sha256  32 bytes — checksum of the payload
//	payload Columns.EncodeTo bytes
//
// Spill files are written with durable.WriteFile, so a reader sees
// either no file or a complete one under its final name. Integrity
// failures on read (bad magic, checksum mismatch, short file) return
// *IntegrityError and — because every batch is recomputable from the
// deterministic generators — are recoverable: Batches rebuilds the rows
// and rewrites the spill, with bytes unchanged by construction.

const spillMagic = "rcpt-col/1\n"

// maxPresize caps the buffer a declared payload length can claim
// before any payload byte has arrived. Larger payloads grow the buffer
// as bytes arrive, so a header that lies costs at most this much plus
// what the stream really holds.
const maxPresize = 1 << 20

// encodeEnvelope writes cols to w as one rcpt-col/1 envelope.
func encodeEnvelope[T any](w io.Writer, cols Columns[T]) error {
	var payload bytes.Buffer
	ew := NewWriter(&payload)
	if err := cols.EncodeTo(ew); err != nil {
		return fmt.Errorf("table: encode: %w", err)
	}
	if err := ew.Err(); err != nil {
		return fmt.Errorf("table: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	hw := NewWriter(w)
	hw.Bytes([]byte(spillMagic))
	hw.Uvarint(uint64(cols.Len()))
	hw.Uvarint(uint64(payload.Len()))
	hw.Bytes(sum[:])
	hw.Bytes(payload.Bytes())
	return hw.Err()
}

// decodeEnvelope reads one rcpt-col/1 envelope from r into the empty
// cols, verifying magic, lengths, checksum and row count. Every failure
// is an *IntegrityError.
func decodeEnvelope[T any](r io.Reader, cols Columns[T]) error {
	br := bufio.NewReaderSize(r, 64*1024)
	// The header is at most the magic and two varints; a short stream
	// just peeks less and fails the parse below.
	head, _ := br.Peek(len(spillMagic) + 2*binary.MaxVarintLen64)
	rest, ok := bytes.CutPrefix(head, []byte(spillMagic))
	if !ok {
		return &IntegrityError{Reason: "bad magic"}
	}
	rows, n1 := durable.Uvarint(rest)
	paylen, n2 := durable.Uvarint(rest[max(n1, 0):])
	if n1 <= 0 || n2 <= 0 {
		return &IntegrityError{Reason: "truncated header"}
	}
	_, _ = br.Discard(len(spillMagic) + n1 + n2) // cannot fail: Peek buffered these bytes
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return &IntegrityError{Reason: "short checksum"}
	}
	payload, err := readPayload(br, paylen)
	if err != nil {
		return &IntegrityError{Reason: "short payload"}
	}
	if sha256.Sum256(payload) != sum {
		return &IntegrityError{Reason: "checksum mismatch"}
	}
	pr := NewReader(bytes.NewReader(payload))
	if err = cols.DecodeFrom(pr); err == nil {
		err = pr.Err()
	}
	if err != nil {
		return &IntegrityError{Reason: fmt.Sprintf("decode: %v", err)}
	}
	if uint64(cols.Len()) != rows {
		return &IntegrityError{Reason: fmt.Sprintf("row count %d, header says %d", cols.Len(), rows)}
	}
	return nil
}

// readPayload reads exactly n bytes from r. Up to maxPresize the buffer
// is allocated once at its final size; past that it starts at
// maxPresize and doubles only as bytes arrive.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxPresize))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// spillPath names batch bi under dir. Deterministic so warm restarts
// and rebuilds land on the same file.
func spillPath(dir string, bi int) string {
	return filepath.Join(dir, fmt.Sprintf("batch-%06d.col", bi))
}

// spillExists reports whether batch bi has a spill file under dir.
func spillExists(dir string, bi int) bool {
	_, err := os.Stat(spillPath(dir, bi))
	return err == nil
}

// writeSpill persists cols to path crash-safely.
func writeSpill[T any](path string, cols Columns[T]) error {
	var blob bytes.Buffer
	if err := encodeEnvelope(&blob, cols); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("table: spill dir: %w", err)
	}
	if err := durable.WriteFile(path, blob.Bytes()); err != nil {
		return fmt.Errorf("table: write spill: %w", err)
	}
	return nil
}

// readSpill loads path into cols. Integrity failures wrap an
// *IntegrityError naming the file.
func readSpill[T any](path string, cols Columns[T]) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := decodeEnvelope(f, cols); err != nil {
		return fmt.Errorf("table: spill %s: %w", path, err)
	}
	return nil
}

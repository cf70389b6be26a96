package binenc

import "io"

// eagerPayload is the largest announced payload length ReadPayload
// allocates before any byte of it has arrived.
const eagerPayload = 1 << 20

// EOFAs maps io.EOF and io.ErrUnexpectedEOF from a read that had to
// deliver bytes — the stream ended mid-item — to the caller's
// truncation sentinel. Any other error (and nil) passes through.
func EOFAs(err, truncated error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return truncated
	}
	return err
}

// ReadPayload reads the n-byte payload a frame header announced. The
// header is unauthenticated, so n is not trusted with memory: up to
// eagerPayload the payload is allocated at once (or read into buf when
// its capacity suffices — the caller's pooled buffer); above that the
// buffer starts at half the limit and doubles only as bytes actually
// arrive, so a peer that announces 256 MiB and sends nothing costs
// 512 KiB, not 256 MiB. A stream that ends early returns truncated.
func ReadPayload(r io.Reader, n int, buf []byte, truncated error) ([]byte, error) {
	switch {
	case cap(buf) >= n:
		buf = buf[:n]
	case n <= eagerPayload:
		buf = make([]byte, n)
	default:
		buf = make([]byte, eagerPayload/2)
	}
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, EOFAs(err, truncated)
		}
		filled = len(buf)
		if filled == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(filled, n-filled))...)
	}
}

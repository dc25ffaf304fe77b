package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The sweep stream (POST /v1/sweep?stream=1) is NDJSON: one Point per
// line, in submission order, then one SweepTrailer line counting them.
// The server writes it in handleSweep; ReadSweepStream is its one reader,
// shared by Client.SweepStream and the fleet router's stream proxy.

// ErrTruncatedStream marks an NDJSON sweep stream that did not complete:
// the connection closed without the SweepTrailer, the trailer counted
// more points than arrived, a line arrived cut or corrupt, or the read
// itself failed mid-stream. Every such failure wraps this sentinel, so
// callers (the fleet router above all) can classify it with errors.Is and
// retry against another replica — a truncated sweep is idempotent to
// re-run, the points already consumed are a deterministic prefix of the
// retry.
var ErrTruncatedStream = errors.New("sweep stream truncated")

// maxStreamLine bounds one NDJSON line of a sweep stream.
const maxStreamLine = 1 << 20

// trailerPrefix starts every SweepTrailer line ({"done":true,...}) and no
// Point line (those lead with "label"), so the reader probes for the
// trailer with a byte comparison instead of a speculative JSON decode of
// every point line.
var trailerPrefix = []byte(`{"done":`)

// ReadSweepStream reads a sweep stream from r, handing each point line
// (valid JSON, without its newline) to point in order, and returns the
// number of point lines read. It returns nil only when the stream ends in
// a trailer whose count matches; a stream that ends without one — or
// whose trailer counts more points than arrived, or that carries a line
// that is not JSON — is reported as ErrTruncatedStream rather than as a
// short success (the regression this guards: a connection dropped
// mid-sweep used to look exactly like a completed sweep). An error from
// point ends the read and is returned as is. The line passed to point is
// only valid until it returns.
func ReadSweepStream(r io.Reader, point func(line []byte) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, trailerPrefix) {
			var t SweepTrailer
			if json.Unmarshal(line, &t) == nil && t.Done {
				if t.Points != n {
					return n, fmt.Errorf("serve: %w: trailer reports %d point(s), received %d (lost points in transit)", ErrTruncatedStream, t.Points, n)
				}
				return n, nil
			}
		}
		if !json.Valid(line) {
			// A connection cut mid-line surfaces here, not as a read error:
			// bufio.Scanner emits whatever partial line it holds as a final
			// complete-looking token before reporting the failure. An
			// undecodable line is therefore truncation (or corruption in
			// flight), never a deterministic server answer.
			return n, fmt.Errorf("serve: %w: undecodable line after %d point(s)", ErrTruncatedStream, n)
		}
		if err := point(line); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return n, fmt.Errorf("serve: sweep stream line exceeds %d bytes (server and client disagree on the protocol?): %w", maxStreamLine, err)
		}
		return n, fmt.Errorf("serve: %w: read failed after %d point(s): %v", ErrTruncatedStream, n, err)
	}
	return n, fmt.Errorf("serve: %w: connection closed after %d point(s) with no terminator", ErrTruncatedStream, n)
}

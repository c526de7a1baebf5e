// Package journal provides the append-only JSONL files behind every
// crash-durability story in this repo: the serving layer's job headers
// and the trace-of-record (telemetry.Recorder). A journal is one
// file, one JSON document per line, with exactly line-level durability:
//
//   - every Append marshals one value, writes one line, and fsyncs, so a
//     line either survives a crash whole or not at all;
//   - a torn final line (the crash landed mid-append) is silently dropped
//     on replay;
//   - any other malformed line is an error — journals are tiny and
//     precious, and a hole in the middle means something other than this
//     code wrote to the file.
//
// The package owns only the file mechanics. Entry schemas — what a header
// pins, what an event means — belong to the callers, which replay the raw
// lines and unmarshal them into their own types.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Read parses the journal at path into its raw lines, in order. A missing
// file is an empty journal; a torn final line is dropped; a malformed line
// anywhere else is an error. Blank lines are skipped.
func Read(path string) ([]json.RawMessage, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var (
		lines []json.RawMessage
		n     int
		torn  = -1
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // headers may carry whole spec lists
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			if torn >= 0 {
				return nil, fmt.Errorf("journal %s: malformed line %d: not JSON", path, torn)
			}
			torn = n
			continue
		}
		if torn >= 0 {
			// A parseable line after a malformed one: the damage is not a
			// torn tail.
			return nil, fmt.Errorf("journal %s: malformed line %d mid-file", path, torn)
		}
		lines = append(lines, json.RawMessage(append([]byte(nil), line...)))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return lines, nil
}

// File is an open journal accepting appends. Safe for concurrent use.
type File struct {
	mu sync.Mutex
	f  *os.File
}

// OpenAppend opens (creating if necessary) the journal at path for
// appending. It does not read or validate existing content — call Read
// first when resuming.
func OpenAppend(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &File{f: f}, nil
}

// Append marshals v, writes it as one line, and fsyncs. Each line
// corresponds to at least one completed simulation or network round-trip,
// so per-line durability is cheap relative to what it records.
func (j *File) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close closes the underlying file. Further Appends fail.
func (j *File) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

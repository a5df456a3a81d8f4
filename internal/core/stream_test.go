package core

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"frieda/internal/catalog"
	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// captureConn records every message sent on it.
type captureConn struct {
	mu   sync.Mutex
	sent []*protocol.Message
}

func (c *captureConn) Send(m *protocol.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, m)
	return nil
}

func (c *captureConn) Recv() (*protocol.Message, error) { return nil, transport.ErrClosed }
func (c *captureConn) Close() error                     { return nil }
func (c *captureConn) RemoteAddr() string               { return "capture" }

func (c *captureConn) messages() []*protocol.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*protocol.Message(nil), c.sent...)
}

func TestSendFile(t *testing.T) {
	cases := []struct {
		name string
		size int
		msgs int
	}{
		{"empty", 0, 1},
		{"1B", 1, 1},
		{"chunk-1", chunkSize - 1, 1},
		{"chunk", chunkSize, 2}, // exact multiple: empty Last chunk follows
		{"chunk+1", chunkSize + 1, 2},
		{"2chunk", 2 * chunkSize, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.size)
			for i := range payload {
				payload[i] = byte(i*31 + 7)
			}
			conn := &captureConn{}
			sent, err := sendFile(conn, "w0", "f", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			if sent != int64(tc.size) {
				t.Fatalf("sent = %d, want %d", sent, tc.size)
			}
			msgs := conn.messages()
			if len(msgs) != tc.msgs {
				t.Fatalf("%d messages, want %d", len(msgs), tc.msgs)
			}
			store := NewMemStore()
			var offset int64
			for i, m := range msgs {
				if m.Type != protocol.TFileData || m.FileName != "f" || m.Worker != "w0" {
					t.Fatalf("message %d = %s %q from %q", i, m.Type, m.FileName, m.Worker)
				}
				if m.Offset != offset {
					t.Fatalf("message %d offset = %d, want %d", i, m.Offset, offset)
				}
				if m.Last != (i == len(msgs)-1) {
					t.Fatalf("message %d Last = %v", i, m.Last)
				}
				if err := store.Append(m.FileName, m.Offset, m.Data); err != nil {
					t.Fatal(err)
				}
				offset += int64(len(m.Data))
			}
			got, ok := store.Bytes("f")
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("round trip: %d bytes (present %v), want %d", len(got), ok, len(payload))
			}
		})
	}
}

// failingReader yields good bytes, then fails.
type failingReader struct {
	good int
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.good == 0 {
		return 0, r.err
	}
	n := min(len(p), r.good)
	r.good -= n
	return n, nil
}

func (r *failingReader) Close() error { return nil }

// flakySource fails the first Open of each file after one full chunk.
type flakySource struct {
	*catalog.MemSource
	mu     sync.Mutex
	opened map[string]bool
}

func (s *flakySource) Open(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	first := !s.opened[name]
	s.opened[name] = true
	s.mu.Unlock()
	if first {
		return &failingReader{good: chunkSize + 10, err: errors.New("source read failed")}, nil
	}
	return s.MemSource.Open(name)
}

// TestStreamFileReleasesClaimOnError checks that a stream whose reader fails
// after one chunk surfaces the error without announcing Last, and drops the
// replica claim, so the next dispatch streams the file again instead of
// trusting a partial copy.
func TestStreamFileReleasesClaimOnError(t *testing.T) {
	src := &flakySource{MemSource: catalog.NewMemSource(), opened: map[string]bool{}}
	payload := bytes.Repeat([]byte("p"), chunkSize+10)
	src.Put("f", payload)
	m, err := NewMaster(MasterConfig{Source: src, Transport: transport.NewMem(nil), Addr: "m"})
	if err != nil {
		t.Fatal(err)
	}
	conn := &captureConn{}
	w := &masterWorker{name: "w0", conn: conn}
	if err := m.streamFile(w, "f"); err == nil {
		t.Fatal("mid-stream read error did not surface")
	}
	if m.replicas.Has("f", "w0") {
		t.Fatal("failed stream kept its replica claim")
	}
	failed := conn.messages()
	if len(failed) != 1 || failed[0].Last {
		t.Fatalf("failed stream sent %d messages, want one non-final chunk", len(failed))
	}
	if err := m.streamFile(w, "f"); err != nil {
		t.Fatal(err)
	}
	if !m.replicas.Has("f", "w0") {
		t.Fatal("completed stream recorded no replica")
	}
	if err := m.streamFile(w, "f"); err != nil { // deduplicated: sends nothing
		t.Fatal(err)
	}
	store := NewMemStore()
	retry := conn.messages()[1:]
	if len(retry) != 2 || !retry[1].Last {
		t.Fatalf("retry sent %d messages, want 2 ending in Last", len(retry))
	}
	for _, msg := range retry {
		if err := store.Append(msg.FileName, msg.Offset, msg.Data); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := store.Bytes("f"); !bytes.Equal(got, payload) {
		t.Fatalf("retry delivered %d bytes, want %d", len(got), len(payload))
	}
	if got := m.Report().BytesMoved; got != int64(chunkSize+len(payload)) {
		t.Fatalf("BytesMoved = %d, want the failed chunk plus the full retry", got)
	}
}

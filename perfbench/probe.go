package main

import (
	"context"
	"io"
	"sync"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// probe instruments one real-runtime job from outside the runtime, through
// the Transport, Source, Store and Program the benchmark passes in.
//
// Its thin part is present in every run: on the master's connections it
// stamps each EXECUTE as it is handed to Send and each TASK_STATUS when its
// Recv returns, giving the per-task latency. With traced set it also
// records a span per wrapped call and the per-layer counters.
type probe struct {
	epoch     time.Time // span clock origin
	traced    bool
	keepSpans bool // store spans and the message mix (first traced job)

	mu    sync.Mutex
	sent  map[int]int64 // group -> EXECUTE left the master (ns since epoch)
	latMs []float64

	// Traced-run state, guarded by mu.
	nextID      int64
	spans       []span
	mix         []*protocol.Message // every message sent, for codec replay
	fileGroup   map[string]int      // input file -> its group
	masterExec  map[int]int64       // group -> span of its EXECUTE send
	execRecv    map[taskKey]stamp   // EXECUTE arrival at the worker
	execSpan    map[taskKey]int64   // program run span
	statusSpan  map[int]int64       // group -> worker's TASK_STATUS send span
	lastRecv    map[string]int64    // worker -> span of its last received message
	refillUs    []float64
	inputWaitMs []float64
	execMs      []float64
	sendUs      []float64
	execNs      int64
	ctrlMsgs    int
	dataMsgs    int // FILE_DATA sent by the master
	filesSent   int // files the master finished streaming
	wireBytes   int64
	outBytes    int64 // FILE_DATA bytes workers returned
	outSendNs   int64
	opens       int
	readBytes   int64
	readNs      int64
	appendBytes int64
	appendNs    int64
}

// taskKey names one task attempt on one worker.
type taskKey struct {
	worker string
	group  int
}

// stamp is a moment and the span recorded at it.
type stamp struct {
	at   int64
	span int64
}

// span is one wrapped call. Spans of one task share its group index;
// Parent is the span that caused this one (0 = none recorded).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Group  int    `json:"group"`
	Worker string `json:"worker,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newProbe(epoch time.Time, traced, keepSpans bool, fileGroup map[string]int) *probe {
	p := &probe{epoch: epoch, traced: traced, keepSpans: keepSpans, sent: make(map[int]int64)}
	if traced {
		p.fileGroup = fileGroup
		p.masterExec = make(map[int]int64)
		p.execRecv = make(map[taskKey]stamp)
		p.execSpan = make(map[taskKey]int64)
		p.statusSpan = make(map[int]int64)
		p.lastRecv = make(map[string]int64)
	}
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// addSpan allocates a span id and stores the span when spans are kept.
// Caller holds p.mu.
func (p *probe) addSpan(name string, group int, worker string, parent, start, end int64) int64 {
	p.nextID++
	if p.keepSpans {
		p.spans = append(p.spans, span{ID: p.nextID, Parent: parent, Name: name, Group: group, Worker: worker, Start: start, End: end})
	}
	return p.nextID
}

// groupOf returns the group a message concerns, or -1.
func (p *probe) groupOf(m *protocol.Message) int {
	switch m.Type {
	case protocol.TExecute:
		return m.GroupIndex
	case protocol.TTaskStatus:
		if len(m.Results) > 0 {
			return m.Results[0].GroupIndex
		}
		return m.Result.GroupIndex
	case protocol.TFileData:
		if g, ok := p.fileGroup[m.FileName]; ok {
			return g
		}
	}
	return -1
}

// executed lists the groups an EXECUTE or EXECUTE_BATCH orders.
func executed(m *protocol.Message) []int {
	switch m.Type {
	case protocol.TExecute:
		return []int{m.GroupIndex}
	case protocol.TExecuteBatch:
		gs := make([]int, len(m.Executes))
		for i, e := range m.Executes {
			gs[i] = e.GroupIndex
		}
		return gs
	}
	return nil
}

// reported lists the results a TASK_STATUS carries.
func reported(m *protocol.Message) []protocol.TaskResult {
	if m.Type != protocol.TTaskStatus {
		return nil
	}
	if len(m.Results) > 0 {
		return m.Results
	}
	return []protocol.TaskResult{m.Result}
}

// --- Transport ---

// probeTransport wraps a transport: connections the listener accepts are
// the master's side, dialed connections belong to the controller or a
// worker.
type probeTransport struct {
	inner transport.Transport
	p     *probe
}

func (t *probeTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &probeListener{Listener: l, p: t.p}, nil
}

func (t *probeTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, p: t.p}, nil
}

type probeListener struct {
	transport.Listener
	p *probe
}

func (l *probeListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, p: l.p, master: true}, nil
}

// probeConn stamps messages crossing one connection end.
type probeConn struct {
	transport.Conn
	p      *probe
	master bool // the master's end of a connection

	// Guarded by p.mu.
	worker string // worker at the far end (master side) or this end
	status stamp  // last TASK_STATUS not yet followed by an EXECUTE (master side)
}

func (c *probeConn) Send(m *protocol.Message) error {
	p := c.p
	gs := executed(m)
	t0 := p.now()
	if c.master && gs != nil {
		// Stamp before sending: over TCP the status can come back before
		// this Send returns.
		p.mu.Lock()
		for _, g := range gs {
			p.sent[g] = t0
		}
		p.mu.Unlock()
	}
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	if !p.traced {
		return nil
	}
	t1 := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Type == protocol.TRegister {
		c.worker = m.Worker
	}
	p.sendUs = append(p.sendUs, float64(t1-t0)/1e3)
	p.wireBytes += int64(m.WireSize())
	if m.Type != protocol.TFileData {
		p.ctrlMsgs++
	}
	if p.keepSpans {
		p.mix = append(p.mix, m)
	}
	g := p.groupOf(m)
	switch {
	case c.master && m.Type == protocol.TFileData:
		p.dataMsgs++
		if m.Last {
			p.filesSent++
		}
		p.addSpan("master.send.FILE_DATA", g, c.worker, 0, t0, t1)
	case c.master && gs != nil:
		parent := c.status.span
		if c.status.at > 0 {
			p.refillUs = append(p.refillUs, float64(t1-c.status.at)/1e3)
			c.status = stamp{}
		}
		for _, g := range gs {
			p.masterExec[g] = p.addSpan("master.send."+m.Type.String(), g, c.worker, parent, t0, t1)
		}
	case c.master:
		p.addSpan("master.send."+m.Type.String(), g, c.worker, 0, t0, t1)
	case m.Type == protocol.TFileData:
		p.outBytes += int64(len(m.Data))
		p.outSendNs += t1 - t0
		p.addSpan("worker.send.FILE_DATA", g, c.worker, p.execSpan[taskKey{c.worker, g}], t0, t1)
	case m.Type == protocol.TTaskStatus:
		for _, r := range reported(m) {
			p.statusSpan[r.GroupIndex] = p.addSpan("worker.send.TASK_STATUS", r.GroupIndex, c.worker,
				p.execSpan[taskKey{c.worker, r.GroupIndex}], t0, t1)
		}
	default:
		p.addSpan("send."+m.Type.String(), g, c.worker, 0, t0, t1)
	}
	return nil
}

func (c *probeConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	p := c.p
	if !p.traced && (!c.master || m.Type != protocol.TTaskStatus) {
		return m, nil
	}
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.master {
		for _, r := range reported(m) {
			if at, ok := p.sent[r.GroupIndex]; ok {
				p.latMs = append(p.latMs, float64(t-at)/1e6)
				delete(p.sent, r.GroupIndex)
			}
		}
	}
	if !p.traced {
		return m, nil
	}
	g := p.groupOf(m)
	switch {
	case c.master && m.Type == protocol.TRegister:
		c.worker = m.Worker
		p.addSpan("master.recv.REGISTER", -1, c.worker, 0, t, t)
	case c.master && m.Type == protocol.TTaskStatus:
		for _, r := range reported(m) {
			id := p.addSpan("master.recv.TASK_STATUS", r.GroupIndex, c.worker, p.statusSpan[r.GroupIndex], t, t)
			c.status = stamp{at: t, span: id}
		}
	case c.master:
		p.addSpan("master.recv."+m.Type.String(), g, c.worker, 0, t, t)
	default:
		gs := executed(m)
		if gs == nil {
			p.lastRecv[c.worker] = p.addSpan("worker.recv."+m.Type.String(), g, c.worker, 0, t, t)
			break
		}
		for _, g := range gs {
			id := p.addSpan("worker.recv."+m.Type.String(), g, c.worker, p.masterExec[g], t, t)
			p.execRecv[taskKey{c.worker, g}] = stamp{at: t, span: id}
			p.lastRecv[c.worker] = id
		}
	}
	return m, nil
}

// --- Source ---

// probeSource counts and times the master's reads of input files.
type probeSource struct {
	catalog.Source
	p *probe
}

func (s *probeSource) Open(name string) (io.ReadCloser, error) {
	p := s.p
	t0 := p.now()
	rc, err := s.Source.Open(name)
	t1 := p.now()
	p.mu.Lock()
	p.opens++
	id := p.addSpan("catalog.open", p.groupOf(&protocol.Message{Type: protocol.TFileData, FileName: name}), "", 0, t0, t1)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &probeReader{ReadCloser: rc, p: p, name: name, open: id}, nil
}

type probeReader struct {
	io.ReadCloser
	p    *probe
	name string
	open int64
}

func (r *probeReader) Read(b []byte) (int, error) {
	t0 := r.p.now()
	n, err := r.ReadCloser.Read(b)
	t1 := r.p.now()
	r.p.mu.Lock()
	r.p.readBytes += int64(n)
	r.p.readNs += t1 - t0
	r.p.mu.Unlock()
	return n, err
}

// --- Store ---

// probeStore times a worker's chunk appends.
type probeStore struct {
	core.Store
	p      *probe
	worker string
}

func (s *probeStore) Append(name string, offset int64, data []byte) error {
	p := s.p
	t0 := p.now()
	err := s.Store.Append(name, offset, data)
	t1 := p.now()
	p.mu.Lock()
	p.appendBytes += int64(len(data))
	p.appendNs += t1 - t0
	p.addSpan("store.append", p.groupOf(&protocol.Message{Type: protocol.TFileData, FileName: name}), s.worker, p.lastRecv[s.worker], t0, t1)
	p.mu.Unlock()
	return err
}

// --- Program ---

// probeProgram times a worker's program runs and the wait before them.
type probeProgram struct {
	inner  core.Program
	p      *probe
	worker string
}

func (pp *probeProgram) Run(ctx context.Context, task core.Task) (string, error) {
	p := pp.p
	t0 := p.now()
	key := taskKey{pp.worker, task.GroupIndex}
	p.mu.Lock()
	arrived, ok := p.execRecv[key]
	if ok {
		p.inputWaitMs = append(p.inputWaitMs, float64(t0-arrived.at)/1e6)
	}
	p.nextID++
	id := p.nextID
	p.execSpan[key] = id
	p.mu.Unlock()

	out, err := pp.inner.Run(ctx, task)

	t1 := p.now()
	p.mu.Lock()
	p.execMs = append(p.execMs, float64(t1-t0)/1e6)
	p.execNs += t1 - t0
	if p.keepSpans {
		p.spans = append(p.spans, span{ID: id, Parent: arrived.span, Name: "worker.exec", Group: task.GroupIndex, Worker: pp.worker, Start: t0, End: t1})
	}
	p.mu.Unlock()
	return out, err
}

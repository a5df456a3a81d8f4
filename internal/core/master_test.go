package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

func TestStrategyInfoRoundTrip(t *testing.T) {
	cases := []strategy.Config{
		strategy.PrePartitionedLocal,
		strategy.PrePartitionedRemote,
		strategy.RealTimeRemote,
		strategy.CommonData,
		{Kind: strategy.RealTime, Grouping: "all-to-all", Prefetch: 4, CommonFiles: []string{"db"}},
	}
	for _, in := range cases {
		cfg := in
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		out, err := strategyFromInfo(strategyToInfo(cfg))
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if out.Kind != cfg.Kind || out.Locality != cfg.Locality || out.Placement != cfg.Placement {
			t.Fatalf("round trip mangled %s -> %s", cfg, out)
		}
		if out.Grouping != cfg.Grouping || out.Multicore != cfg.Multicore || out.Prefetch != cfg.Prefetch {
			t.Fatalf("round trip mangled fields: %+v vs %+v", out, cfg)
		}
		if len(out.CommonFiles) != len(cfg.CommonFiles) {
			t.Fatalf("common files lost: %v", out.CommonFiles)
		}
	}
}

// TestStrategyInfoRoundTripGrid sweeps the full Kind × Locality × Placement
// × Multicore × Prefetch space: every configuration the strategy layer
// validates must survive the wire encoding unchanged.
func TestStrategyInfoRoundTripGrid(t *testing.T) {
	kinds := []strategy.Kind{strategy.NoPartition, strategy.PrePartition, strategy.RealTime}
	locs := []strategy.Locality{strategy.Remote, strategy.Local}
	places := []strategy.Placement{strategy.DataToCompute, strategy.ComputeToData}
	valid, skipped := 0, 0
	for _, k := range kinds {
		for _, l := range locs {
			for _, p := range places {
				for _, mc := range []bool{false, true} {
					for _, pf := range []int{0, 1, 8} {
						cfg := strategy.Config{Kind: k, Locality: l, Placement: p, Multicore: mc, Prefetch: pf}
						if err := cfg.Validate(); err != nil {
							// Invalid combination (e.g. no-partition +
							// compute-to-data): the wire layer must reject
							// it too, not smuggle it through.
							if _, ferr := strategyFromInfo(strategyToInfo(cfg)); ferr == nil {
								t.Errorf("%s: Validate rejects (%v) but strategyFromInfo accepts", cfg, err)
							}
							skipped++
							continue
						}
						valid++
						out, err := strategyFromInfo(strategyToInfo(cfg))
						if err != nil {
							t.Fatalf("%s: %v", cfg, err)
						}
						if out.Kind != cfg.Kind || out.Locality != cfg.Locality || out.Placement != cfg.Placement {
							t.Fatalf("round trip mangled %s -> %s", cfg, out)
						}
						if out.Multicore != cfg.Multicore || out.Prefetch != cfg.Prefetch {
							t.Fatalf("round trip mangled fields: %+v vs %+v", out, cfg)
						}
						if out.Grouping != cfg.Grouping || out.Assigner != cfg.Assigner {
							t.Fatalf("round trip mangled defaults: %+v vs %+v", out, cfg)
						}
					}
				}
			}
		}
	}
	if valid == 0 || skipped == 0 {
		t.Fatalf("grid degenerate: %d valid, %d skipped", valid, skipped)
	}
}

func TestStrategyFromInfoRejections(t *testing.T) {
	bad := []protocol.StrategyInfo{
		{Kind: "bogus"},
		{Kind: "real-time", Locality: "bogus"},
		{Kind: "real-time", Placement: "bogus"},
		{Kind: "real-time", Grouping: "bogus"},
		{Kind: "real-time", Locality: "local"},               // contradiction
		{Kind: "no-partition", Placement: "compute-to-data"}, // contradiction
		{Kind: "real-time", Prefetch: -1},                    // negative depth
		{Kind: "real-time", Assigner: "bogus"},               // unknown assigner
	}
	for i, info := range bad {
		if _, err := strategyFromInfo(info); err == nil {
			t.Errorf("case %d accepted: %+v", i, info)
		}
	}
	// Empty fields default sanely.
	cfg, err := strategyFromInfo(protocol.StrategyInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != strategy.RealTime || cfg.Locality != strategy.Remote {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// startMaster spins up a master over the in-memory transport and returns a
// dialer.
func startMaster(t *testing.T, cfg MasterConfig) (*Master, *transport.Mem, context.CancelFunc) {
	t.Helper()
	tr := transport.NewMem(nil)
	cfg.Transport = tr
	cfg.Addr = "m"
	if cfg.Source == nil {
		src := catalog.NewMemSource()
		for i := 0; i < 4; i++ {
			src.Put(fmt.Sprintf("f%d", i), []byte("data"))
		}
		cfg.Source = src
	}
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go m.Serve(ctx)
	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c, err := tr.Dial("m"); err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("master never listened")
		}
		time.Sleep(time.Millisecond)
	}
	return m, tr, cancel
}

func TestMasterRejectsUnknownFirstMessage(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{Strategy: strategy.RealTimeRemote, ExpectedWorkers: 1})
	defer cancel()
	_ = m
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(&protocol.Message{Type: protocol.TRequestData})
	if _, err := conn.Recv(); err == nil {
		t.Fatal("master kept a connection that opened with REQUEST_DATA")
	}
}

func TestMasterRejectsBadStrategyFromController(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{Strategy: strategy.RealTimeRemote, ExpectedWorkers: 1})
	defer cancel()
	_ = m
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(&protocol.Message{
		Type:     protocol.TStartMaster,
		Strategy: protocol.StrategyInfo{Kind: "bogus"},
		Seq:      1,
	})
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Error == "" {
		t.Fatal("bogus strategy accepted")
	}
}

func TestMasterControlProtocol(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{Strategy: strategy.RealTimeRemote})
	defer cancel()
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	send := func(msg *protocol.Message) *protocol.Message {
		t.Helper()
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		ack, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}
	if ack := send(&protocol.Message{Type: protocol.TStartMaster, Strategy: strategyToInfo(strategy.RealTimeRemote), Seq: 1}); ack.Error != "" {
		t.Fatalf("START_MASTER rejected: %s", ack.Error)
	}
	// Removing an unknown worker errors but keeps the channel alive.
	if ack := send(&protocol.Message{Type: protocol.TRemoveWorker, Worker: "ghost", Seq: 2}); ack.Error == "" {
		t.Fatal("ghost removal accepted")
	}
	// Unexpected control messages are acked with an error.
	if ack := send(&protocol.Message{Type: protocol.TRequestData, Seq: 3}); !strings.Contains(ack.Error, "unexpected") {
		t.Fatalf("unexpected message ack = %+v", ack)
	}
	// PARTITION_TYPE works before start.
	if ack := send(&protocol.Message{Type: protocol.TPartitionType, Strategy: strategyToInfo(strategy.PrePartitionedRemote), Seq: 4}); ack.Error != "" {
		t.Fatalf("PARTITION_TYPE rejected: %s", ack.Error)
	}
	// SHUTDOWN closes the listener.
	if ack := send(&protocol.Message{Type: protocol.TShutdown, Seq: 5}); ack.Error != "" {
		t.Fatalf("SHUTDOWN rejected: %s", ack.Error)
	}
	if _, err := tr.Dial("m"); err == nil {
		t.Fatal("listener still up after SHUTDOWN")
	}
	_ = m
}

func TestMasterFatalOnBadGrouping(t *testing.T) {
	// A grouping that cannot apply (pairwise on an odd file count) must
	// fail the run, not hang it.
	src := catalog.NewMemSource()
	for i := 0; i < 3; i++ {
		src.Put(fmt.Sprintf("f%d", i), []byte("x"))
	}
	strat := strategy.RealTimeRemote
	strat.Grouping = "pairwise-adjacent"
	m, tr, cancel := startMaster(t, MasterConfig{Strategy: strat, Source: src, ExpectedWorkers: 1})
	defer cancel()
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 1, Store: NewMemStore(),
		Program:   FuncProgram(func(context.Context, Task) (string, error) { return "", nil }),
		Transport: tr, MasterAddr: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run(context.Background())
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("master hung on invalid grouping")
	}
	r := m.Report()
	if len(r.WorkerErrors) == 0 {
		t.Fatalf("no error surfaced: %+v", r)
	}
}

func TestMasterReportBeforeDone(t *testing.T) {
	m, _, cancel := startMaster(t, MasterConfig{Strategy: strategy.RealTimeRemote, ExpectedWorkers: 2})
	defer cancel()
	r := m.Report()
	if r.Groups != 0 || r.MakespanSec != 0 {
		t.Fatalf("pre-run report = %+v", r)
	}
}

func TestMasterAddr(t *testing.T) {
	m, _, cancel := startMaster(t, MasterConfig{Strategy: strategy.RealTimeRemote, ExpectedWorkers: 1})
	defer cancel()
	if m.Addr() != "m" {
		t.Fatalf("Addr = %q", m.Addr())
	}
}

func TestOneToAllPivotTransferredOnce(t *testing.T) {
	// one-to-all pairs f0 with every other file; f0 must cross the wire to
	// each worker at most once (replica dedup).
	src := catalog.NewMemSource()
	src.Put("f0", []byte(strings.Repeat("p", 1000)))
	for i := 1; i <= 6; i++ {
		src.Put(fmt.Sprintf("f%d", i), []byte(strings.Repeat("x", 10)))
	}
	strat := strategy.RealTimeRemote
	strat.Grouping = "one-to-all"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strat,
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: src},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if len(task.Inputs) != 2 || task.Inputs[0] != "f0" {
			return "", fmt.Errorf("unexpected inputs %v", task.Inputs)
		}
		return "ok", nil
	})
	for i := 0; i < 2; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 6 {
		t.Fatalf("report = %+v", r)
	}
	// Upper bound: pivot once per worker (2×1000) + six smalls (60).
	if r.BytesMoved > 2*1000+6*10 {
		t.Fatalf("BytesMoved = %d; pivot re-sent", r.BytesMoved)
	}
}

// ackHoldTransport delays the registration ACK of one named worker until
// release is closed, and reports on early every other message the master
// sends that worker before the ACK.
type ackHoldTransport struct {
	transport.Transport
	hold    string
	pending chan struct{} // closed once the master is sending the held ACK
	release chan struct{}
	early   chan protocol.Type
}

type ackHoldListener struct {
	transport.Listener
	tr *ackHoldTransport
}

type ackHoldConn struct {
	transport.Conn
	tr    *ackHoldTransport
	mu    sync.Mutex
	name  string
	acked bool
}

func (t *ackHoldTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &ackHoldListener{Listener: l, tr: t}, nil
}

func (l *ackHoldListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ackHoldConn{Conn: c, tr: l.tr}, nil
}

func (c *ackHoldConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == protocol.TRegister {
		c.mu.Lock()
		c.name = m.Worker
		c.mu.Unlock()
	}
	return m, err
}

func (c *ackHoldConn) Send(m *protocol.Message) error {
	c.mu.Lock()
	held := c.name == c.tr.hold && !c.acked
	c.mu.Unlock()
	if held && m.Type == protocol.TAck {
		close(c.tr.pending)
		<-c.tr.release
		err := c.Conn.Send(m)
		c.mu.Lock()
		c.acked = true
		c.mu.Unlock()
		return err
	}
	if held {
		select {
		case c.tr.early <- m.Type: // the first violation is enough
		default:
		}
	}
	return c.Conn.Send(m)
}

// TestNoDataBeforeRegistrationAck holds one worker's registration ACK while
// the other workers meet the expected count and run the job: nothing but the
// ACK may reach the held worker first — no FILE_DATA, no EXECUTE — and the
// job must not wait for it.
func TestNoDataBeforeRegistrationAck(t *testing.T) {
	tr := &ackHoldTransport{
		Transport: transport.NewMem(nil),
		hold:      "b",
		pending:   make(chan struct{}),
		release:   make(chan struct{}),
		early:     make(chan protocol.Type, 1),
	}
	releaseAck := sync.OnceFunc(func() { close(tr.release) })
	defer releaseAck()
	src := sourceWithFiles(12, 10)
	src.Put("db.bin", []byte(strings.Repeat("D", 300)))
	strat := strategy.RealTimeRemote
	strat.CommonFiles = []string{"db.bin"}
	m, err := NewMaster(MasterConfig{Strategy: strat, Source: src, Transport: tr, Addr: "m", ExpectedWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go m.Serve(ctx)

	var b transport.Conn
	for b == nil {
		if b, err = tr.Dial("m"); err != nil {
			time.Sleep(time.Millisecond)
		}
	}
	defer b.Close()
	if err := b.Send(&protocol.Message{Type: protocol.TRegister, Worker: "b", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	<-tr.pending // b is registered; its ACK is held
	for _, name := range []string{"a", "c"} {
		w, err := NewWorker(WorkerConfig{
			Name: name, Cores: 1, Store: NewMemStore(), Program: echoProgram(),
			Transport: tr, MasterAddr: "m",
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}
	select {
	case typ := <-tr.early:
		t.Fatalf("master sent %s to b before its registration ACK", typ)
	case <-m.Done():
	case <-ctx.Done():
		t.Fatal("run did not finish without the held worker")
	}
	if r := m.Report(); r.Succeeded != 12 {
		t.Fatalf("report = %+v", r)
	}

	releaseAck()
	first, err := b.Recv()
	if err != nil || first.Type != protocol.TAck || first.Error != "" {
		t.Fatalf("b's first message = %+v, %v", first, err)
	}
	for {
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type == protocol.TExecute || msg.Type == protocol.TExecuteBatch {
			t.Fatalf("finished run sent %s to a late worker", msg.Type)
		}
		if msg.Type == protocol.TNoMoreData {
			break
		}
	}
}

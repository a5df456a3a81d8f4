package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"frieda/internal/protocol"
)

// codecRounds is how many times the recorded mix is replayed; the median
// round is reported.
const codecRounds = 5

// replayCodec replays a recorded message mix through protocol.Codec over an
// in-memory pipe: every message is encoded into one stream, then decoded
// from it, as one connection would carry them. It returns the median
// encode and decode nanoseconds per message and the wire bytes per
// message.
func replayCodec(mix []*protocol.Message) (encNs, decNs, wireBytes float64, err error) {
	if len(mix) == 0 {
		return 0, 0, 0, fmt.Errorf("no messages recorded")
	}
	var encs, decs []float64
	for round := 0; round < codecRounds; round++ {
		var pipe bytes.Buffer
		enc := protocol.NewCodec(&pipe)
		t := time.Now()
		for _, m := range mix {
			if err := enc.Send(m); err != nil {
				return 0, 0, 0, err
			}
		}
		encs = append(encs, float64(time.Since(t))/float64(len(mix)))
		wireBytes = float64(pipe.Len()) / float64(len(mix))
		dec := protocol.NewCodec(&pipe)
		t = time.Now()
		for range mix {
			if _, err := dec.Recv(); err != nil {
				return 0, 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t))/float64(len(mix)))
	}
	return median(encs), median(decs), wireBytes, nil
}

// mixSummary describes a message mix: count and mean payload bytes per
// type.
func mixSummary(mix []*protocol.Message) string {
	type agg struct{ n, payload int }
	byType := make(map[string]*agg)
	for _, m := range mix {
		a := byType[m.Type.String()]
		if a == nil {
			a = &agg{}
			byType[m.Type.String()] = a
		}
		a.n++
		a.payload += len(m.Data) + len(m.Result.Output)
	}
	names := make([]string, 0, len(byType))
	for t := range byType {
		names = append(names, t)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, t := range names {
		a := byType[t]
		parts[i] = fmt.Sprintf("%s×%d (%.0f B payload)", t, a.n, float64(a.payload)/float64(a.n))
	}
	return strings.Join(parts, ", ")
}

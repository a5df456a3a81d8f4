package core

import (
	"errors"
	"io"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// chunkSize is the FILE_DATA payload size. 256 KiB balances framing overhead
// against scheduling granularity, like scp's internal buffering in the
// paper's prototype.
const chunkSize = 256 << 10

// sendFile streams r to conn as ordered TFileData chunks and returns the
// payload bytes sent. It is the one file stream of the real runtime: the
// master sends inputs with it and workers return outputs with it (worker
// names the sender; empty from the master).
//
// Last rides on the final data chunk, so a file shorter than a chunk is a
// single message. Only an empty file, or one whose size is an exact multiple
// of chunkSize, ends with an empty Last chunk.
func sendFile(conn transport.Conn, worker, name string, r io.Reader) (int64, error) {
	buf := make([]byte, chunkSize)
	var sent int64
	for {
		n, err := io.ReadFull(r, buf)
		last := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
		if err != nil && !last {
			return sent, err
		}
		if err := conn.Send(&protocol.Message{
			Type: protocol.TFileData, Worker: worker, FileName: name,
			Offset: sent, Data: append([]byte(nil), buf[:n]...), Last: last,
		}); err != nil {
			return sent, err
		}
		sent += int64(n)
		if last {
			return sent, nil
		}
	}
}

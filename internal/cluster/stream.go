package cluster

import (
	"io"

	"hetsort/internal/record"
)

// Stream presents the sequence of same-tagged messages from one peer as
// an incrementally consumable sorted key stream: Buffered, Discard and
// Fill mirror polyphase.MergeSource, so a receiving node can merge
// redistribution traffic straight off the wire without first spooling
// it to disk (the fused steps 4+5 of Algorithm 1).  A zero-length
// message is the end-of-stream sentinel, exactly as in the barrier
// exchange.
//
// The Stream owns each message payload while it is buffered and returns
// it to the cluster's pool when the next Fill replaces it; callers must
// Close the stream to release the final buffer.
type Stream struct {
	n    *Node
	from int
	tag  int
	buf  []record.Key
	pos  int
	done bool
}

// OpenStream starts consuming messages with the given tag from peer
// `from` on this node.
func (n *Node) OpenStream(from, tag int) *Stream {
	return &Stream{n: n, from: from, tag: tag}
}

// Buffered returns the unconsumed keys of the current message.
func (s *Stream) Buffered() []record.Key { return s.buf[s.pos:] }

// Discard consumes the first n buffered keys.
func (s *Stream) Discard(n int) { s.pos += n }

// Fill blocks for the next message once the buffer is empty.  It
// returns io.EOF after the sender's zero-length sentinel.
func (s *Stream) Fill() error {
	if s.pos < len(s.buf) {
		return nil
	}
	if s.done {
		return io.EOF
	}
	s.release()
	keys, err := s.n.Recv(s.from, s.tag)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		s.done = true
		return io.EOF
	}
	s.buf, s.pos = keys, 0
	return nil
}

// Close releases the stream's current buffer back to the pool.
func (s *Stream) Close() {
	s.release()
	s.pos = 0
}

func (s *Stream) release() {
	if s.buf != nil {
		s.n.ReleaseBuf(s.buf)
		s.buf = nil
	}
}

// A Packer is a Stream's sending side for keys that arrive in pieces: it
// packs them into pooled messages of Size keys to one peer (SendOwned),
// the last one short.  Close sends what is left, not the sentinel.
type Packer struct {
	N       *Node
	To, Tag int
	Size    int
	Sent    int64 // keys sent so far
	msg     []record.Key
}

// Write appends keys to the stream.
func (p *Packer) Write(keys []record.Key) error {
	for len(keys) > 0 {
		if p.msg == nil {
			p.msg = p.N.AcquireBuf(p.Size)[:0]
		}
		c := min(len(keys), p.Size-len(p.msg))
		if p.msg, keys = append(p.msg, keys[:c]...), keys[c:]; len(p.msg) == p.Size {
			if err := p.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close sends the message being packed, if any.
func (p *Packer) Close() error {
	if len(p.msg) == 0 {
		return nil
	}
	msg := p.msg
	p.msg, p.Sent = nil, p.Sent+int64(len(msg))
	return p.N.SendOwned(p.To, p.Tag, msg)
}

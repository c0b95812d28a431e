//go:build unix

package wire

import "syscall"

// canPeek: a pooled connection can be asked, without a read, whether
// its server closed it while it sat idle, so Transport runs requests.
const canPeek = true

// peeker keeps what one connection's peek needs, so that a peek
// allocates nothing.
type peeker struct {
	raw  syscall.RawConn
	fn   func(fd uintptr) bool
	buf  [1]byte
	open bool // the last peek found nothing to read and no end
}

// alive reports whether a pooled connection can carry a request: a
// MSG_PEEK on the socket, which the runtime keeps non-blocking, finds it neither closed by the server (EOF or
// an error) nor holding bytes nobody asked for. A connection that is not
// a socket is not asked.
func (c *conn) alive() bool {
	p := &c.peek
	if p.raw == nil {
		sc, ok := c.Conn.(syscall.Conn)
		if !ok {
			return true
		}
		raw, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		p.raw = raw
		p.fn = func(fd uintptr) bool {
			n, _, err := syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK)
			p.open = n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
			return true
		}
	}
	p.open = false
	return p.raw.Read(p.fn) == nil && p.open
}

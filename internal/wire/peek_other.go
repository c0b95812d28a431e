//go:build !unix

package wire

// canPeek: without the idle-connection peek a pooled connection the
// server closed would fail its next request, so Transport hands every
// request to the http.Transport it wraps.
const canPeek = false

type peeker struct{}

func (c *conn) alive() bool { return false }

// Package ctxpropagate is the fixture for the context-propagation
// analyzer: fresh roots inside context-receiving functions, and
// internal callers of the module's context-less chat shims.
package ctxpropagate

import (
	"context"
	"net/http"
)

// Chatter mirrors the module's context-less interface; its methods are
// module-defined, so rule 2 polices calls to them.
type Chatter interface {
	Chat(prompt string) (string, error)
}

// Client mirrors chatapi.Client's shim pair.
type Client struct{}

func (c *Client) ChatCompletion(req string) (string, error) {
	return c.ChatCompletionContext(context.Background(), req) // the wrapper has no context to pass: not a finding
}

func (c *Client) ChatCompletionContext(ctx context.Context, req string) (string, error) {
	_ = ctx
	return req, nil
}

// --- rule 1: fresh roots under an in-scope context ----------------------

func freshRoot(ctx context.Context, c *Client) (string, error) {
	_ = ctx
	bg := context.Background() // want `context\.Background inside a function that already receives`
	return c.ChatCompletionContext(bg, "hi")
}

func freshTODO(ctx context.Context) error {
	_ = ctx
	todo := context.TODO() // want `context\.TODO inside a function that already receives`
	return todo.Err()
}

// clean: no context parameter, Background is the legitimate root.
func topLevel(c *Client) (string, error) {
	return c.ChatCompletionContext(context.Background(), "hi")
}

// --- rule 2: context-less shim calls ------------------------------------

func shimUnderCtx(ctx context.Context, ch Chatter) (string, error) {
	_ = ctx
	return ch.Chat("hello") // want `context-less Chat call drops the in-scope context`
}

func shimInHandler(w http.ResponseWriter, r *http.Request, c *Client) {
	out, _ := c.ChatCompletion("hello") // want `context-less ChatCompletion call drops the in-scope context`
	_, _ = w.Write([]byte(out))
}

func shimNoCtx(ch Chatter) (string, error) {
	return ch.Chat("hello") // want `internal caller of deprecated context-less shim`
}

// suppressed: adapters are the one legitimate caller.
type adapter struct{ ch Chatter }

func (a adapter) ChatContext(ctx context.Context, prompt string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return a.ch.Chat(prompt) //paslint:allow ctxpropagate fixture adapter lifts a plain Chatter by design
}

package obs

import (
	"fmt"
	"io"
)

// ErrWriter latches the first write error so report code stays linear:
// print everything, then return Err. It is an io.Writer, so a command
// can wrap its stdout in one and check Err once before it exits.
type ErrWriter struct {
	W   io.Writer
	Err error
}

func (e *ErrWriter) Printf(format string, args ...any) { fmt.Fprintf(e, format, args...) }

// Write writes p unless an earlier write failed, and latches the first
// error.
func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.Err != nil {
		return 0, e.Err
	}
	n, err := e.W.Write(p)
	e.Err = err
	return n, err
}

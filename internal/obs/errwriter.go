package obs

import (
	"fmt"
	"io"
)

// ErrWriter latches the first write error so report code stays linear:
// print everything, then return Err.
type ErrWriter struct {
	W   io.Writer
	Err error
}

func (e *ErrWriter) Printf(format string, args ...any) {
	if e.Err != nil {
		return
	}
	_, e.Err = fmt.Fprintf(e.W, format, args...)
}

package logger

import "errors"

// ErrDetached reports that an operation needed a recording logger but the
// logger had already been detached. Test with errors.Is.
var ErrDetached = errors.New("logger detached")

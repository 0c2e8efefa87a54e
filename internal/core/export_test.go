package core

// SetViewFault installs fn as the view-currency check: wherever the
// engine uses a threaded LLC view or residency fact, it compares it with
// a fresh Probe and hands fn a description of any disagreement. nil
// removes the check.
func SetViewFault(fn func(msg string)) { viewFault = fn }

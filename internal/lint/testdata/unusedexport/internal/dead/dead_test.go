package dead

import "testing"

// Exported is declared in a test file, which the pass does not check.
func Exported() {}

func TestTestOnly(t *testing.T) { TestOnly() }

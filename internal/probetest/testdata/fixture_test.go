package fixture

// notScanned is annotated, but in a test file, which TaggedFuncs skips.
//
//outran:allocfree
func notScanned() {}

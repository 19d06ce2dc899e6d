package store

// WriteAt is the write seam, for the fault rows of package store_test.
var WriteAt = &writeAt

package unused

// Double is the external tests' hook into double.
var Double = double

// Package wantat carries an expectation in the retired file-suffix
// form; the harness must refuse it rather than skip it as prose.
package wantat

var W = 3 // want@docs.md `a finding in another file`

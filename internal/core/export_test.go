package core

// Hooks for the external core_test package.

// LossyFlow exposes lossyFlow to tests outside the package.
var LossyFlow = lossyFlow

// FeedChecked exposes feedChecked, the scoreboard oracle.
var FeedChecked = feedChecked

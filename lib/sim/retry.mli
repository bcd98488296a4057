(** The one transaction retry loop.  The session layer, the workload
    adapters and the baseline protocols all retry through {!run}; they
    differ only in policy. *)

val run :
  max_attempts:int ->
  retryable:('a -> bool) ->
  backoff:(int -> float) ->
  (unit -> 'a) ->
  'a * int
(** [run ~max_attempts ~retryable ~backoff attempt] calls [attempt ()]
    until an outcome is not [retryable] or [max_attempts] attempts were
    made, sleeping [backoff k] virtual seconds (if positive) after a
    retryable attempt [k], counted from 0.  Returns the last outcome
    and the attempts made.  Must run inside a process. *)

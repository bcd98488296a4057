let run ~max_attempts ~retryable ~backoff attempt =
  let rec go k =
    let outcome = attempt () in
    if retryable outcome && k + 1 < max_attempts then begin
      let pause = backoff k in
      if pause > 0.0 then Engine.sleep pause;
      go (k + 1)
    end
    else (outcome, k + 1)
  in
  go 0

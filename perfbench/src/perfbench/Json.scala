package perfbench

/** Minimal JSON writer for the result line and the span file. Doubles are
  * written with all their digits (`Double.toString`); integral counts as
  * integers.
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(sb, v)
    sb.toString
  }

  private def emit(sb: StringBuilder, v: Any): Unit = v match {
    case null        => sb.append("null")
    case s: String   => quote(sb, s)
    case b: Boolean  => sb.append(b)
    case i: Int      => sb.append(i)
    case l: Long     => sb.append(l)
    case d: Double   =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      sb.append(d.toString)
    case m: scala.collection.Map[_, _] =>
      sb.append('{')
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb.append(','); first = false
        quote(sb, k.toString); sb.append(':'); emit(sb, x)
      }
      sb.append('}')
    case xs: Iterable[_] =>
      sb.append('[')
      var first = true
      xs.foreach { x => if (!first) sb.append(','); first = false; emit(sb, x) }
      sb.append(']')
    case other => quote(sb, other.toString)
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb.append('"')
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"')
  }
}
